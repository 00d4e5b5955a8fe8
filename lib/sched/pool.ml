(* A fixed-size OCaml 5 domain pool with one shared work queue.

   Sizing: [jobs] is the total degree of parallelism.  The coordinator
   participates in draining the queue during {!run}, so [jobs - 1]
   domains are spawned; [jobs = 1] degenerates to inline sequential
   execution with no domains, no locks taken and no scheduling overhead
   — the property the determinism tests lean on (`-j 1` is *exactly*
   the sequential engine, not a one-worker simulation of it).

   Containment: [run] wraps every task so that its value or exception
   lands in the task's own result slot.  A queued job therefore never
   raises, no worker domain ever dies, and the results come back in
   submission order however the domains interleaved. *)

type t = {
  jobs : int;
  mutex : Mutex.t;
  work_cond : Condition.t;  (* queue became non-empty, or shutdown *)
  done_cond : Condition.t;  (* pending reached zero *)
  queue : (unit -> unit) Queue.t;
  mutable pending : int;  (* tasks queued or running *)
  mutable stopped : bool;
  mutable domains : unit Domain.t list;
}

let jobs t = t.jobs

let default_jobs () =
  match Sys.getenv_opt "EXOM_JOBS" with
  | None -> 1
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> n
    | Some 0 -> Domain.recommended_domain_count ()
    | _ -> 1)

let finish_task t =
  t.pending <- t.pending - 1;
  if t.pending = 0 then Condition.broadcast t.done_cond

let rec worker_loop t =
  (* called with the mutex held *)
  if t.stopped then Mutex.unlock t.mutex
  else
    match Queue.take_opt t.queue with
    | Some job ->
      Mutex.unlock t.mutex;
      job ();
      Mutex.lock t.mutex;
      finish_task t;
      worker_loop t
    | None ->
      Condition.wait t.work_cond t.mutex;
      worker_loop t

let create ?(jobs = 1) () =
  let jobs =
    if jobs = 0 then Domain.recommended_domain_count ()
    else if jobs < 0 then invalid_arg "Pool.create: jobs must be >= 0"
    else jobs
  in
  let t =
    {
      jobs;
      mutex = Mutex.create ();
      work_cond = Condition.create ();
      done_cond = Condition.create ();
      queue = Queue.create ();
      pending = 0;
      stopped = false;
      domains = [];
    }
  in
  t.domains <-
    List.init (max 0 (jobs - 1)) (fun _ ->
        Domain.spawn (fun () ->
            Mutex.lock t.mutex;
            worker_loop t));
  t

(* The coordinator's share of the drain: run queued jobs, then wait for
   the ones in flight on other domains. *)
let rec drive t =
  (* called with the mutex held *)
  match Queue.take_opt t.queue with
  | Some job ->
    Mutex.unlock t.mutex;
    job ();
    Mutex.lock t.mutex;
    finish_task t;
    drive t
  | None ->
    if t.pending > 0 then begin
      Condition.wait t.done_cond t.mutex;
      drive t
    end
    else Mutex.unlock t.mutex

(* The obs record is identical on the inline and the pooled path, so
   the metric tree stays independent of the job count. *)
let record_submission obs n =
  match obs with
  | None -> ()
  | Some obs ->
    Exom_obs.Obs.add obs "pool.tasks" n;
    Exom_obs.Obs.gauge obs "pool.queue_depth" n

let run ?obs t tasks =
  if t.stopped then invalid_arg "Pool.run: pool is shut down";
  let tasks = Array.of_list tasks in
  let n = Array.length tasks in
  record_submission obs n;
  (* each job writes only its own slot; the mutex hand-off in [drive]
     publishes the writes to the coordinator *)
  let results = Array.make n None in
  let jobs =
    List.init n (fun i () ->
        results.(i) <-
          Some (match tasks.(i) () with v -> Ok v | exception exn -> Error exn))
  in
  if t.jobs <= 1 || n <= 1 then List.iter (fun job -> job ()) jobs
  else begin
    Mutex.lock t.mutex;
    if t.stopped then begin
      Mutex.unlock t.mutex;
      invalid_arg "Pool.run: pool is shut down"
    end;
    List.iter (fun job -> Queue.add job t.queue) jobs;
    t.pending <- t.pending + n;
    Condition.broadcast t.work_cond;
    drive t
  end;
  Array.to_list (Array.map Option.get results)

let shutdown t =
  Mutex.lock t.mutex;
  if not t.stopped then begin
    t.stopped <- true;
    Condition.broadcast t.work_cond
  end;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.domains;
  t.domains <- []

(* One shared pool for callers that don't manage their own, sized by
   EXOM_JOBS (so e.g. CI can run the whole test suite under -j 2
   without touching any call site).  Created on first use: with the
   default of 1 job no domain is ever spawned. *)
let default_pool = ref None

let default () =
  match !default_pool with
  | Some p -> p
  | None ->
    let p = create ~jobs:(default_jobs ()) () in
    default_pool := Some p;
    p
