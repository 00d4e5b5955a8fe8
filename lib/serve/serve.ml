(* The exom localization daemon.

   Two domains share the work:

   - the listener accepts connections, answers ping/stats inline, and
     enqueues locate requests — persisting each one to
     STATE/requests/ *before* it is queued, so an accepted request
     survives SIGKILL;
   - the service loop (the coordinator, on the main domain) pops
     requests and runs one localization at a time, journaling it with
     the crash-safe ledger machinery over the shared sharded store.
     One-at-a-time is deliberate: each request already fans its
     verification batches out across the supervised pool, and the
     store/ledger coordinator-only discipline is what makes every
     request's ledger byte-identical to a single-process `exom locate`
     of the same program and input.

   Crash safety: a request's journal is named after its session
   fingerprint (content hash of program, input, expected stream,
   budget).  A SIGKILL mid-request leaves the journal behind;
   `run ~resume:true` re-enqueues every persisted request whose ledger
   lacks a Final event and replays it — completed batches from the
   journal, the in-flight batch live — to a byte-identical ledger.
   Repeated requests with the same fingerprint replay their complete
   journal: a warm answer, zero re-executions.

   Counters cross domains, so they are atomics; they are mirrored into
   the daemon's metrics registry under serve.* only from the service
   loop and at drain, keeping the registry coordinator-only. *)

module Session = Exom_core.Session
module Demand = Exom_core.Demand
module Guard = Exom_core.Guard
module Pipeline = Exom_core.Pipeline
module Recover = Exom_core.Recover
module Pool = Exom_sched.Pool
module Store = Exom_sched.Store
module Ledger = Exom_ledger.Ledger
module Obs = Exom_obs.Obs
module Export = Exom_obs.Export
module Vfs = Exom_util.Vfs

type config = {
  socket_path : string;
  state_dir : string;
  jobs : int;
  queue_limit : int;
  shards : int;
  lease : float;
  request_retries : int;
  resume : bool;
  trace : bool;
      (* per-request span recording, exported to
         STATE/traces/<fingerprint>.trace.json *)
}

let default_config ~socket_path ~state_dir =
  {
    socket_path;
    state_dir;
    jobs = Pool.default_jobs ();
    queue_limit = 64;
    shards = Store.default_shards;
    lease = Store.default_lease;
    request_retries = 2;
    resume = false;
    trace = false;
  }

(* {2 State} *)

type counters = {
  accepted : int Atomic.t;  (* locate requests taken into the queue *)
  served : int Atomic.t;  (* requests answered with a report *)
  shed : int Atomic.t;  (* rejected: queue full, draining, stale *)
  failed : int Atomic.t;  (* unservable: parse errors, agreement, ... *)
  resumed : int Atomic.t;  (* in-flight requests replayed at startup *)
  replayed : int Atomic.t;  (* requests served (partly) from a journal *)
  retries : int Atomic.t;  (* degraded requests re-run *)
  storage_unavailable : int Atomic.t;
      (* requests shed (507-style) because their request file could not
         be persisted: the daemon keeps draining on a hostile disk *)
}

type pending = {
  p_locate : Proto.locate;
  p_fd : Unix.file_descr option;  (* None for requests replayed at startup *)
  p_file : string option;  (* provisional request file, renamed when served *)
  p_enqueued : float;  (* wall clock, for the queue deadline only *)
}

type state = {
  cfg : config;
  drain : bool Atomic.t;
  mutex : Mutex.t;
  queue : pending Queue.t;
  counters : counters;
  obs : Obs.t;  (* service-loop only *)
  pool : Pool.t;
}

let requests_dir st = Filename.concat st.cfg.state_dir "requests"
let ledgers_dir st = Filename.concat st.cfg.state_dir "ledgers"
let store_dir st = Filename.concat st.cfg.state_dir "store"
let traces_dir st = Filename.concat st.cfg.state_dir "traces"
let ledger_path st fp = Filename.concat (ledgers_dir st) (fp ^ ".ledger")
let trace_path st fp = Filename.concat (traces_dir st) (fp ^ ".trace.json")

(* Startup state directories are mandatory: a daemon that cannot
   persist requests must not come up claiming crash safety. *)
let ensure_dir d = Vfs.get_ok (Vfs.ensure_dir d)

let write_file_atomic path content =
  Vfs.write_file_atomic
    ~tmp:(Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()))
    path content

let queue_depth st =
  Mutex.lock st.mutex;
  let n = Queue.length st.queue in
  Mutex.unlock st.mutex;
  n

let counter_list st =
  [ ("accepted", Atomic.get st.counters.accepted);
    ("served", Atomic.get st.counters.served);
    ("shed", Atomic.get st.counters.shed);
    ("failed", Atomic.get st.counters.failed);
    ("resumed", Atomic.get st.counters.resumed);
    ("replayed", Atomic.get st.counters.replayed);
    ("retries", Atomic.get st.counters.retries);
    ("storage_unavailable", Atomic.get st.counters.storage_unavailable);
    ("queue_depth", queue_depth st) ]

(* {2 The listener domain} *)

let send_response fd resp =
  match Proto.write_frame fd (Proto.encode_response resp) with
  | () -> ()
  | exception (Unix.Unix_error _ | Sys_error _) -> ()  (* client went away *)

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let provisional_seq = ref 0

(* Persist, then enqueue, then count: a request is only ever
   acknowledged after it can survive a SIGKILL.  A request that cannot
   be persisted is therefore shed (the 507: storage, not load) — the
   client is told to retry, nothing enters the queue, and the daemon
   keeps draining. *)
let enqueue_locate st fd locate =
  incr provisional_seq;
  let file =
    Filename.concat (requests_dir st)
      (Printf.sprintf "q-%d-%d.json" (Unix.getpid ()) !provisional_seq)
  in
  match
    write_file_atomic file (Proto.encode_request (Proto.Locate locate) ^ "\n")
  with
  | Error e ->
    Vfs.ack e ~by:"serve.storage_unavailable";
    (* whatever landed (a torn temp, a renamed-but-unsynced file) must
       not be replayed by --resume: the client was told to retry *)
    (try Sys.remove file with Sys_error _ -> ());
    Atomic.incr st.counters.storage_unavailable;
    Atomic.incr st.counters.shed;
    send_response fd (Proto.Shed "storage_unavailable");
    close_quietly fd
  | Ok () ->
    Mutex.lock st.mutex;
    Queue.add
      { p_locate = locate; p_fd = Some fd; p_file = Some file;
        p_enqueued = Unix.gettimeofday () }
      st.queue;
    Mutex.unlock st.mutex;
    Atomic.incr st.counters.accepted

let handle_connection st fd =
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
  match Proto.read_frame fd with
  | Ok None -> close_quietly fd
  | Error e ->
    send_response fd (Proto.Failed e);
    close_quietly fd
  | Ok (Some payload) -> (
    match Proto.decode_request payload with
    | Error e ->
      send_response fd (Proto.Failed e);
      close_quietly fd
    | Ok Proto.Ping ->
      send_response fd Proto.Pong;
      close_quietly fd
    | Ok Proto.Stats ->
      send_response fd (Proto.Counters (counter_list st));
      close_quietly fd
    | Ok (Proto.Locate locate) ->
      if Atomic.get st.drain then begin
        Atomic.incr st.counters.shed;
        send_response fd (Proto.Shed "draining");
        close_quietly fd
      end
      else if queue_depth st >= st.cfg.queue_limit then begin
        (* the 429: bounded queue, explicit reject, client backs off *)
        Atomic.incr st.counters.shed;
        send_response fd (Proto.Shed "queue full");
        close_quietly fd
      end
      else enqueue_locate st fd locate)

let listener_loop st lfd =
  let rec loop () =
    if Atomic.get st.drain then ()
    else begin
      (match Unix.select [ lfd ] [] [] 0.25 with
      | [], _, _ -> ()
      | _ :: _, _, _ -> (
        match Unix.accept lfd with
        | fd, _ -> (
          match handle_connection st fd with
          | () -> ()
          | exception _ -> close_quietly fd)
        | exception
            Unix.Unix_error
              ( ( Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR
                | Unix.ECONNABORTED ),
                _,
                _ ) ->
          ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ();
  try Unix.close lfd with Unix.Unix_error _ -> ()

(* {2 Serving one request} *)

(* The structured counterpart of [Pipeline.report_text]: every
   deterministic counter of a locate report, keyed for machine
   consumers (the corpus campaign runner builds its outcome rows from
   exactly these keys, whether it ran in-process or through the
   daemon). *)
let counts_of_report (report : Demand.report) =
  let g = report.Demand.robustness and s = report.Demand.store in
  [
    ("iterations", report.Demand.iterations);
    ("verifications", report.Demand.verifications);
    ("verify_queries", report.Demand.verify_queries);
    ("expanded_edges", report.Demand.expanded_edges);
    ("implicit_edges", List.length report.Demand.implicit_edges);
    ("user_prunings", report.Demand.user_prunings);
    ("total_prunings", report.Demand.total_prunings);
    ("benign", List.length report.Demand.benign);
    ("completed", g.Guard.completed);
    ("aborted", g.Guard.aborted);
    ("breaker_trips", g.Guard.breaker_trips);
    ("breaker_skips", g.Guard.breaker_skips);
    ("quarantined", g.Guard.quarantined);
    ("store_hits", s.Store.hits);
    ("store_disk_hits", s.Store.disk_hits);
    ("store_misses", s.Store.misses);
    ("store_writes", s.Store.writes);
    ("degraded", if report.Demand.degraded = None then 0 else 1);
  ]

(* One localization, cold or resumed from its fingerprint journal.
   [attempt] drives the degraded-retry backoff. *)
let rec locate_once st (l : Proto.locate) ~attempt =
  match
    ( Pipeline.compile ~name:"program" l.Proto.lc_program,
      Pipeline.compile ~name:"correct" l.Proto.lc_correct )
  with
  | Error e, _ | _, Error e -> Proto.Failed e
  | Ok prog, Ok correct -> (
    let policy =
      match l.Proto.lc_deadline with
      | None -> Guard.default_policy
      | Some d -> { Guard.default_policy with Guard.deadline = Some d }
    in
    (* per-request observability lane: forked on the coordinator,
       absorbed after the request, so daemon metrics aggregate
       deterministically while each request keeps its own registry.
       Under [trace] the request gets a fresh tracing context instead
       (a fork of the non-tracing daemon context could never record
       spans); its metrics are still absorbed into the daemon's. *)
    let req_obs =
      if st.cfg.trace then Obs.create ~trace:true () else Obs.fork st.obs
    in
    let ledger = Ledger.create () in
    let store =
      Store.create ~obs:req_obs ~dir:(store_dir st) ~shards:st.cfg.shards
        ~lease:st.cfg.lease ()
    in
    match
      Pipeline.prepare ~obs:req_obs ~policy ~store ~ledger ~prog ~correct
        ~input:l.Proto.lc_input ()
    with
    | Error e -> Proto.Failed (Pipeline.setup_error_message e)
    | Ok prepared ->
      let session = prepared.Pipeline.session in
      (* The session fingerprint covers program/input/expected/budget;
         the root line additionally shapes the search trajectory (the
         search stops when it reaches the root set), so it is folded
         into the journal key — requests differing only in root line
         must not share a journal. *)
      let fp =
        let base = Session.fingerprint session in
        match l.Proto.lc_root_line with
        | None -> base
        | Some line -> Printf.sprintf "%s-r%d" base line
      in
      let lpath = ledger_path st fp in
      let resume = Pipeline.journal_plan lpath in
      (* the request's whole search runs under one serve.request span
         keyed by the fingerprint, so an exported trace names the
         request it belongs to on its own coordinator lane *)
      let report, resumed =
        Obs.with_span req_obs ~cat:"serve"
          ~args:[ ("fingerprint", fp) ]
          "serve.request"
          (fun () ->
            Pipeline.locate ~pool:st.pool ~journal:lpath ?resume prepared
              ~root_sids:(Pipeline.root_sids_of_line prog l.Proto.lc_root_line))
      in
      let replayed =
        match resumed with Pipeline.Replayed _ -> true | _ -> false
      in
      (* canonical-write failure degrades, never drops the answer:
         the closed journal is complete, so resume still converges *)
      (match Ledger.write_result lpath ledger with
      | Ok () -> ()
      | Error e ->
        Vfs.ack e ~by:"serve.io_failures";
        Obs.incr st.obs "serve.io_failures");
      if st.cfg.trace then begin
        match Vfs.ensure_dir (traces_dir st) with
        | Error e ->
          Vfs.ack e ~by:"serve.io_failures";
          Obs.incr st.obs "serve.io_failures"
        | Ok () -> (
          match
            write_file_atomic (trace_path st fp)
              (Exom_obs.Json.to_string (Export.chrome_json req_obs) ^ "\n")
          with
          | Ok () -> ()
          | Error e ->
            Vfs.ack e ~by:"serve.io_failures";
            Obs.incr st.obs "serve.io_failures")
      end;
      Obs.absorb ~into:st.obs req_obs;
      if report.Demand.degraded <> None && attempt < st.cfg.request_retries
      then begin
        (* transient worker kills degraded the run: back off and re-run
           cold — replaying a degraded journal would only reproduce the
           degradation *)
        Atomic.incr st.counters.retries;
        Obs.incr st.obs "serve.retries";
        (try Sys.remove lpath with Sys_error _ -> ());
        Unix.sleepf (0.05 *. float_of_int (1 lsl attempt));
        locate_once st l ~attempt:(attempt + 1)
      end
      else begin
        if replayed then begin
          Atomic.incr st.counters.replayed;
          Obs.incr st.obs "serve.replayed"
        end;
        Proto.Served
          {
            Proto.sv_found = report.Demand.found;
            sv_fingerprint = fp;
            sv_ledger = lpath;
            sv_replayed = replayed;
            sv_report =
              Pipeline.report_text session.Session.info report
                ~root_line:l.Proto.lc_root_line;
            sv_counts = counts_of_report report;
          }
      end)

let serve_one st item =
  let stale =
    match item.p_locate.Proto.lc_deadline with
    | Some d -> Unix.gettimeofday () -. item.p_enqueued > d
    | None -> false
  in
  let resp =
    if stale then begin
      Atomic.incr st.counters.shed;
      Obs.incr st.obs "serve.shed";
      (* the client is told to retry, so the persisted request must go:
         leaving it would make --resume re-enqueue work the client
         already re-owns (and double-run it after its retry) *)
      (match item.p_file with
      | Some f -> ( try Sys.remove f with Sys_error _ -> ())
      | None -> ());
      Proto.Shed "queue deadline exceeded"
    end
    else begin
      let resp = locate_once st item.p_locate ~attempt:0 in
      (match resp with
      | Proto.Served s ->
        Atomic.incr st.counters.served;
        Obs.incr st.obs "serve.served";
        (* retire the provisional request file under the fingerprint:
           repeated requests collapse onto one persisted record *)
        (match item.p_file with
        | Some f when Sys.file_exists f -> (
          let final =
            Filename.concat (requests_dir st) (s.Proto.sv_fingerprint ^ ".json")
          in
          try Sys.rename f final with Sys_error _ -> ())
        | _ -> ())
      | Proto.Failed _ ->
        Atomic.incr st.counters.failed;
        Obs.incr st.obs "serve.failed";
        (* unservable forever: drop the persisted request so resume
           does not replay a parse error *)
        (match item.p_file with
        | Some f -> ( try Sys.remove f with Sys_error _ -> ())
        | None -> ())
      | _ -> ());
      resp
    end
  in
  match item.p_fd with
  | None -> ()
  | Some fd ->
    send_response fd resp;
    close_quietly fd

let rec service_loop st =
  let item =
    Mutex.lock st.mutex;
    let i = Queue.take_opt st.queue in
    Mutex.unlock st.mutex;
    i
  in
  match item with
  | Some item ->
    serve_one st item;
    service_loop st
  | None ->
    if Atomic.get st.drain then ()  (* drained: accepted work is done *)
    else begin
      Unix.sleepf 0.02;
      service_loop st
    end

(* {2 Startup resume} *)

(* Re-enqueue every persisted request whose ledger is not complete: the
   localizations in flight (or still queued) when the daemon was
   killed.  Their journals are picked up by fingerprint inside
   [locate_once], replaying completed batches and re-verifying only the
   in-flight tail — the resumed ledger is byte-identical to an
   uninterrupted run's. *)
let resume_scan st =
  let dir = requests_dir st in
  Array.iter
    (fun name ->
      if Filename.check_suffix name ".json" then begin
        let path = Filename.concat dir name in
        let content =
          try
            let ic = open_in_bin path in
            Fun.protect
              ~finally:(fun () -> close_in ic)
              (fun () -> really_input_string ic (in_channel_length ic))
          with Sys_error _ -> ""
        in
        match Proto.decode_request (String.trim content) with
        | Ok (Proto.Locate locate) ->
          let complete_ledger path =
            match Recover.plan_of_file path with
            | Ok p -> p.Recover.complete
            | Error _ -> false
          in
          (* a complete ledger under the request's fingerprint means the
             answer is durable; only fingerprint-named request files can
             be checked without building a session *)
          let done_already =
            complete_ledger
              (ledger_path st (Filename.chop_suffix name ".json"))
          in
          if not done_already then begin
            Mutex.lock st.mutex;
            Queue.add
              { p_locate = locate; p_fd = None; p_file = Some path;
                p_enqueued = Unix.gettimeofday () }
              st.queue;
            Mutex.unlock st.mutex;
            Atomic.incr st.counters.resumed;
            Obs.incr st.obs "serve.resumed"
          end
        | Ok _ | Error _ ->
          (* unreadable or foreign: quarantine-by-rename, keep going *)
          (try Sys.rename path (path ^ ".rejected") with Sys_error _ -> ())
      end)
    (try Sys.readdir dir with Sys_error _ -> [||])

(* {2 The daemon} *)

let run ?(on_ready = fun () -> ()) cfg =
  ensure_dir cfg.state_dir;
  let st =
    {
      cfg;
      drain = Atomic.make false;
      mutex = Mutex.create ();
      queue = Queue.create ();
      counters =
        {
          accepted = Atomic.make 0;
          served = Atomic.make 0;
          shed = Atomic.make 0;
          failed = Atomic.make 0;
          resumed = Atomic.make 0;
          replayed = Atomic.make 0;
          retries = Atomic.make 0;
          storage_unavailable = Atomic.make 0;
        };
      obs = Obs.create ();
      pool = Pool.create ~jobs:cfg.jobs ();
    }
  in
  ensure_dir (requests_dir st);
  ensure_dir (ledgers_dir st);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  if cfg.resume then resume_scan st;
  (* the socket: refuse to clobber a live daemon, replace a dead one's *)
  let socket_free =
    if not (Sys.file_exists cfg.socket_path) then true
    else begin
      let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let live =
        match Unix.connect probe (Unix.ADDR_UNIX cfg.socket_path) with
        | () -> true
        | exception Unix.Unix_error _ -> false
      in
      close_quietly probe;
      if live then false
      else begin
        Sys.remove cfg.socket_path;
        true
      end
    end
  in
  if not socket_free then begin
    Printf.eprintf "serve: %s already has a listening daemon\n" cfg.socket_path;
    Pool.shutdown st.pool;
    1
  end
  else begin
    let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind lfd (Unix.ADDR_UNIX cfg.socket_path);
    Unix.listen lfd 64;
    (* the drain handlers are installed only once this instance owns the
       socket: a refused second instance must not clobber the live
       daemon's handlers (they share a process in the test harness) *)
    let drain_signal _ = Atomic.set st.drain true in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle drain_signal);
    Sys.set_signal Sys.sigint (Sys.Signal_handle drain_signal);
    on_ready ();
    let listener = Domain.spawn (fun () -> listener_loop st lfd) in
    service_loop st;
    Domain.join listener;
    Pool.shutdown st.pool;
    (* final books: fold the cross-domain counters into the registry and
       export it next to the ledgers *)
    List.iter
      (fun (name, v) ->
        if name <> "queue_depth" then
          let have =
            Exom_obs.Metrics.counter_value (Obs.metrics st.obs)
              ("serve." ^ name)
          in
          if v > have then Obs.add st.obs ("serve." ^ name) (v - have))
      (counter_list st);
    (match
       Export.write_jsonl (Filename.concat cfg.state_dir "metrics.jsonl") st.obs
     with
    | Ok () -> ()
    | Error e ->
      Vfs.ack e ~by:"serve.io_failures";
      Printf.eprintf "serve: metrics export failed: %s\n" (Vfs.error_message e));
    (try Sys.remove cfg.socket_path with Sys_error _ -> ());
    0
  end
