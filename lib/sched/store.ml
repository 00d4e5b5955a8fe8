(* The persistent verdict store: a content-addressed cache keyed by a
   hex digest, with an in-memory LRU front and an optional on-disk tier
   that any number of processes may share.

   Disk layout (version 2, recorded in a manifest so foreign layouts
   are recognized instead of misread):

     DIR/MANIFEST              {"schema":"exom.store","version":2,"shards":N}
     DIR/shard-007/<key>       one file per entry, hash-partitioned
     DIR/shard-007.lock        advisory writer lock for that shard
     DIR/quarantine/           rejected entries and foreign layouts

   Entry format, versioned so future layouts can be rejected instead of
   misread:

     #exom-store v1
     <key>
     <payload-length>
     <payload bytes>

   The key is echoed inside the entry and checked on read: a file
   renamed, truncated or swapped on disk is detected, rejected (the
   [corrupted] counter) and moved into quarantine, never returned as a
   hit.  Writes go through a per-process temp file + rename so a crash
   mid-write leaves no torn entry behind.

   Multi-writer protocol: a writer takes the shard's lock file
   (O_CREAT|O_EXCL) for the duration of one entry write and unlinks it
   after.  Contended acquisitions steal the lock when the recorded
   holder pid is dead, or when the lock file is older than the lease —
   a crashed writer can never wedge the cache.  Readers never lock.
   Correctness does not hinge on the lock: entries are content
   addressed, so two writers racing on one key produce identical
   bytes, and distinct keys live in distinct files.  The lock exists to
   serialize same-shard write bursts and keep rename traffic orderly.

   Within one process the store is still coordinator-only by design —
   the batch planner resolves hits before dispatch and records results
   after the merge, so worker domains never touch it. *)

module Json = Exom_obs.Json
module Vfs = Exom_util.Vfs

let version = 1
let layout_version = 2
let default_shards = 16
let default_lease = 5.0

let header = Printf.sprintf "#exom-store v%d" version

type stats = {
  mutable hits : int;  (* answered from the in-memory front *)
  mutable disk_hits : int;  (* answered from disk (then promoted) *)
  mutable misses : int;
  mutable evictions : int;  (* LRU entries dropped from memory *)
  mutable corrupted : int;  (* disk entries rejected on read *)
  mutable writes : int;  (* entries persisted to disk *)
}

(* Operational (per-process) counters for the shared disk tier.  Not
   part of ledger checkpoints: they describe contention with other
   writers, not verdict derivation, so resume must not restore them. *)
type lock_stats = {
  mutable lock_waits : int;
  mutable lock_steals : int;
  mutable quarantined : int;
  mutable io_failures : int;
  mutable tmp_swept : int;
}

let snapshot s =
  { hits = s.hits; disk_hits = s.disk_hits; misses = s.misses;
    evictions = s.evictions; corrupted = s.corrupted; writes = s.writes }

let hit_rate s =
  let total = s.hits + s.disk_hits + s.misses in
  if total = 0 then 0.0
  else float_of_int (s.hits + s.disk_hits) /. float_of_int total

(* Intrusive doubly-linked LRU list over the memory tier: [head] is the
   most recently used entry, [tail] the eviction candidate. *)
type entry = {
  e_key : string;
  mutable e_value : string;
  mutable e_prev : entry option;  (* toward head *)
  mutable e_next : entry option;  (* toward tail *)
}

(* The disk tier; [shards] always comes from the manifest, so every
   process sharing the directory partitions identically. *)
type disk = { root : string; shards : int; lease : float }

type t = {
  disk : disk option;
  capacity : int;
  tbl : (string, entry) Hashtbl.t;
  mutable head : entry option;
  mutable tail : entry option;
  stats : stats;
  locks : lock_stats;
  obs : Exom_obs.Obs.t option;
}

(* Every stats increment is mirrored into the metrics registry under
   "store.<field>", so `exom stats` shows the cache behaviour without a
   second accounting path. *)
let count_obs obs name =
  match obs with
  | None -> ()
  | Some obs -> Exom_obs.Obs.incr obs ("store." ^ name)

let count t name = count_obs t.obs name

let default_capacity = 65_536

let stats t = t.stats
let lock_stats t = t.locks
let mem_size t = Hashtbl.length t.tbl
let shard_count t = match t.disk with None -> 0 | Some d -> d.shards

(* Content addressing: each part is length-prefixed before hashing so
   part boundaries cannot collide ("ab"+"c" vs "a"+"bc"). *)
let digest parts =
  let buf = Buffer.create 64 in
  List.iter
    (fun p ->
      Buffer.add_string buf (string_of_int (String.length p));
      Buffer.add_char buf ':';
      Buffer.add_string buf p)
    parts;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* LRU plumbing *)

let unlink t e =
  (match e.e_prev with
  | Some p -> p.e_next <- e.e_next
  | None -> t.head <- e.e_next);
  (match e.e_next with
  | Some n -> n.e_prev <- e.e_prev
  | None -> t.tail <- e.e_prev);
  e.e_prev <- None;
  e.e_next <- None

let push_front t e =
  e.e_next <- t.head;
  (match t.head with
  | Some h -> h.e_prev <- Some e
  | None -> t.tail <- Some e);
  t.head <- Some e

let touch t e =
  if t.head != Some e then begin
    unlink t e;
    push_front t e
  end

let evict_lru t =
  match t.tail with
  | None -> ()
  | Some e ->
    unlink t e;
    Hashtbl.remove t.tbl e.e_key;
    t.stats.evictions <- t.stats.evictions + 1;
    count t "evictions"

let insert_mem t key value =
  match Hashtbl.find_opt t.tbl key with
  | Some e ->
    e.e_value <- value;
    touch t e
  | None ->
    if Hashtbl.length t.tbl >= t.capacity then evict_lru t;
    let e = { e_key = key; e_value = value; e_prev = None; e_next = None } in
    Hashtbl.replace t.tbl key e;
    push_front t e

(* Disk tier: layout helpers *)

let manifest_name = "MANIFEST"
let quarantine_name = "quarantine"
let manifest_path root = Filename.concat root manifest_name
let shard_name i = Printf.sprintf "shard-%03d" i
let shard_dir root i = Filename.concat root (shard_name i)
let lock_path root i = Filename.concat root (shard_name i ^ ".lock")

let ensure_dir d =
  if not (Sys.file_exists d) then
    try Sys.mkdir d 0o755
    with Sys_error _ -> ()  (* racing creator won; that's fine *)

let hex_val c =
  match c with
  | '0' .. '9' -> Some (Char.code c - Char.code '0')
  | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
  | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
  | _ -> None

(* Hash partition: the key's first two hex chars (keys are hex digests;
   anything else falls back to a structural hash). *)
let shard_index ~shards key =
  let h =
    if String.length key >= 2 then
      match (hex_val key.[0], hex_val key.[1]) with
      | Some a, Some b -> (a * 16) + b
      | _ -> Hashtbl.hash key land 0xff
    else Hashtbl.hash key land 0xff
  in
  h mod shards

let entry_path d key = Filename.concat (shard_dir d.root (shard_index ~shards:d.shards key)) key

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Degradation contract: a persist that fails — really or under an
   injected storm — downgrades the affected entry (or, for the
   manifest, the whole tier) to memory-only and counts [io_failures];
   it never aborts a localization over a cache write. *)
let note_io_failure ~obs ~locks e ~by =
  Vfs.ack e ~by;
  locks.io_failures <- locks.io_failures + 1;
  count_obs obs "io_failures"

(* Quarantine: move a suspect file (or whole foreign item) aside so it
   cannot fail — or be misread — again.  Renames are best-effort: a
   concurrent process may have moved it first. *)
let quarantine_seq = ref 0

let quarantine_item ~note root src_name =
  let q = Filename.concat root quarantine_name in
  ensure_dir q;
  incr quarantine_seq;
  let dst =
    Filename.concat q
      (Printf.sprintf "%s.%d.%d" (Filename.basename src_name) (Unix.getpid ())
         !quarantine_seq)
  in
  match Sys.rename src_name dst with
  | () -> note ()
  | exception Sys_error _ -> ()

(* Advisory shard locks.

   A lock is a file created with O_CREAT|O_EXCL holding the owner pid.
   Steal rules, in order: holder pid provably dead -> steal now; lock
   older than the lease -> steal regardless (covers unreadable pids,
   pid reuse and wedged-but-alive holders).  Stealing renames the lock
   to a unique name before unlinking, so two stealers cannot both
   claim to have removed the same lock. *)

let lock_sleep = 0.002

let pid_alive pid =
  match Unix.kill pid 0 with
  | () -> true
  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> false
  | exception Unix.Unix_error (_, _, _) -> true

let holder_pid path =
  match read_file path with
  | content -> int_of_string_opt (String.trim content)
  | exception _ -> None

let lock_age path =
  match Unix.stat path with
  | st -> Some (Unix.gettimeofday () -. st.Unix.st_mtime)
  | exception Unix.Unix_error _ -> None

let steal_lock path =
  incr quarantine_seq;
  let stale = Printf.sprintf "%s.stale.%d.%d" path (Unix.getpid ()) !quarantine_seq in
  match Sys.rename path stale with
  | () ->
    (try Sys.remove stale with Sys_error _ -> ());
    true
  | exception Sys_error _ -> false  (* someone else got there first *)

let acquire_lock ~lease ~on_wait ~on_steal path =
  let waited = ref false in
  let rec loop () =
    match Unix.openfile path [ Unix.O_CREAT; Unix.O_EXCL; Unix.O_WRONLY ] 0o644 with
    | fd ->
      let pid = string_of_int (Unix.getpid ()) in
      (try ignore (Unix.write_substring fd pid 0 (String.length pid))
       with Unix.Unix_error _ -> ());
      Unix.close fd;
      if !waited then on_wait ()
    | exception Unix.Unix_error (Unix.EEXIST, _, _) ->
      let steal =
        (match holder_pid path with
        | Some pid -> not (pid_alive pid)
        | None -> false)
        ||
        match lock_age path with Some age -> age > lease | None -> false
      in
      if steal then begin
        if steal_lock path then on_steal ()
      end
      else begin
        waited := true;
        Unix.sleepf lock_sleep
      end;
      loop ()
    | exception Unix.Unix_error (Unix.ENOENT, _, _) ->
      (* parent directory raced away (e.g. quarantined); recreate *)
      ensure_dir (Filename.dirname path);
      loop ()
  in
  loop ()

let release_lock path = try Sys.remove path with Sys_error _ -> ()

let with_lock t d i f =
  let lock = lock_path d.root i in
  (* the lock file creation sits under the chaos plan too: an injected
     fault on it degrades to a lockless write — the lock is advisory
     (entries are content addressed), so correctness survives; only
     same-shard write bursts lose their serialization *)
  match Vfs.probe Vfs.Write lock with
  | Some e ->
    note_io_failure ~obs:t.obs ~locks:t.locks e ~by:"store.io_failures";
    f ()
  | None ->
    acquire_lock ~lease:d.lease
      ~on_wait:(fun () ->
        t.locks.lock_waits <- t.locks.lock_waits + 1;
        count t "lock_waits")
      ~on_steal:(fun () ->
        t.locks.lock_steals <- t.locks.lock_steals + 1;
        count t "lock_steals")
      lock;
    Fun.protect ~finally:(fun () -> release_lock lock) f

(* Orphan sweep: a stealer that crashes between [steal_lock]'s rename
   and remove leaves `X.lock.stale.<pid>.<seq>` behind, and a writer
   killed mid-entry leaves `<key>.tmp.<pid>`.  Both are garbage the
   moment their embedded pid is dead: sweep them on open (under the
   init lock) so crashed writers cannot accumulate litter, and count
   the sweep in [lock_stats]. *)

let suffix_after name marker =
  let ml = String.length marker and nl = String.length name in
  let rec find i best =
    if i + ml > nl then best
    else find (i + 1) (if String.sub name i ml = marker then Some (i + ml) else best)
  in
  Option.map (fun i -> String.sub name i (nl - i)) (find 0 None)

(* [Some true] when [name] carries [marker] and its embedded pid is
   provably dead (or unreadable — a writer that never got to write a
   pid is not alive to mind). *)
let orphaned_by name marker =
  match suffix_after name marker with
  | None -> None
  | Some rest ->
    let pid_str =
      match String.index_opt rest '.' with
      | Some i -> String.sub rest 0 i
      | None -> rest
    in
    Some
      (match int_of_string_opt pid_str with
      | Some pid -> not (pid_alive pid)
      | None -> true)

let sweep_stale_tmps ~note root =
  let sweep_file dir name =
    let orphan =
      match orphaned_by name ".stale." with
      | Some d -> d
      | None -> Option.value ~default:false (orphaned_by name ".tmp.")
    in
    if orphan then
      match Sys.remove (Filename.concat dir name) with
      | () -> note ()
      | exception Sys_error _ -> ()  (* a racing sweeper won *)
  in
  match Sys.readdir root with
  | exception Sys_error _ -> ()
  | names ->
    Array.iter
      (fun name ->
        let path = Filename.concat root name in
        match Sys.is_directory path with
        | true -> (
          (* quarantined evidence is kept as-is *)
          if name <> quarantine_name then
            match Sys.readdir path with
            | exception Sys_error _ -> ()
            | inner -> Array.iter (fun n -> sweep_file path n) inner)
        | false -> sweep_file root name
        | exception Sys_error _ -> ())
      names

(* Manifest: one JSON line naming the layout.  A directory whose
   manifest is missing (but non-empty), unparsable, or from a different
   schema/version is a foreign layout: its contents are quarantined and
   the directory re-initialized — the cache must never abort, and must
   never guess at an alien partitioning. *)

let render_manifest shards =
  Json.to_string
    (Json.Obj
       [ ("schema", Json.Str "exom.store");
         ("version", Json.Num (float_of_int layout_version));
         ("shards", Json.Num (float_of_int shards)) ])
  ^ "\n"

let parse_manifest content =
  match Json.parse (String.trim content) with
  | Error e -> Error ("unparsable manifest: " ^ e)
  | Ok j -> (
    match
      ( Json.member "schema" j,
        Json.member "version" j,
        Json.member "shards" j )
    with
    | Some (Json.Str "exom.store"), Some (Json.Num v), Some (Json.Num n)
      when int_of_float v = layout_version ->
      let shards = int_of_float n in
      if shards >= 1 && shards <= 256 then Ok shards
      else Error (Printf.sprintf "manifest shard count %d out of range" shards)
    | Some (Json.Str "exom.store"), Some (Json.Num v), _ ->
      Error (Printf.sprintf "manifest layout version %d (want %d)"
               (int_of_float v) layout_version)
    | _ -> Error "foreign manifest")

(* Adopt or initialize a store directory.  Serialized across processes
   by an init lock so two concurrent creators agree on one manifest.
   Returns [None] — memory-tier only — when the directory (or its
   manifest) cannot be persisted: the cache degrades, never aborts. *)
let open_disk ~obs ~locks ~shards ~lease root =
  match Vfs.ensure_dir root with
  | Error e ->
    note_io_failure ~obs ~locks e ~by:"store.io_failures";
    None
  | Ok () ->
    if not (Sys.is_directory root) then
      invalid_arg (Printf.sprintf "Store.create: %s is not a directory" root);
    let note () =
      locks.quarantined <- locks.quarantined + 1;
      count_obs obs "quarantined"
    in
    let init_lock = Filename.concat root ".init.lock" in
    acquire_lock ~lease
      ~on_wait:(fun () ->
        locks.lock_waits <- locks.lock_waits + 1;
        count_obs obs "lock_waits")
      ~on_steal:(fun () ->
        locks.lock_steals <- locks.lock_steals + 1;
        count_obs obs "lock_steals")
      init_lock;
    Fun.protect
      ~finally:(fun () -> release_lock init_lock)
      (fun () ->
        sweep_stale_tmps
          ~note:(fun () ->
            locks.tmp_swept <- locks.tmp_swept + 1;
            count_obs obs "tmp_swept")
          root;
        let mpath = manifest_path root in
        let adopted =
          if Sys.file_exists mpath then
            match parse_manifest (read_file mpath) with
            | Ok shards -> Some shards
            | Error _ ->
              (* foreign or corrupt manifest: quarantine it and every
                 shard laid out under it *)
              quarantine_item ~note root mpath;
              None
          else None
        in
        match adopted with
        | Some shards -> Some { root; shards; lease }
        | None ->
          (* no usable manifest: any existing content is a foreign or
             legacy layout — move it aside wholesale, then initialize *)
          Array.iter
            (fun name ->
              if
                name <> quarantine_name
                && name <> Filename.basename init_lock
                && not (Filename.check_suffix name ".lock")
              then quarantine_item ~note root (Filename.concat root name))
            (Sys.readdir root);
          match Vfs.write_file_atomic mpath (render_manifest shards) with
          | Ok () -> Some { root; shards; lease }
          | Error e ->
            (* no manifest means no agreed partitioning: this process
               runs memory-only rather than guess *)
            note_io_failure ~obs ~locks e ~by:"store.io_failures";
            None)

let create ?obs ?dir ?(capacity = default_capacity) ?(shards = default_shards)
    ?(lease = default_lease) () =
  if capacity < 1 then invalid_arg "Store.create: capacity must be >= 1";
  if shards < 1 || shards > 256 then
    invalid_arg "Store.create: shards must be in [1, 256]";
  if lease <= 0.0 then invalid_arg "Store.create: lease must be positive";
  let locks =
    { lock_waits = 0; lock_steals = 0; quarantined = 0; io_failures = 0;
      tmp_swept = 0 }
  in
  let disk = Option.bind dir (open_disk ~obs ~locks ~shards ~lease) in
  {
    disk;
    capacity;
    tbl = Hashtbl.create 256;
    head = None;
    tail = None;
    stats =
      { hits = 0; disk_hits = 0; misses = 0; evictions = 0; corrupted = 0;
        writes = 0 };
    locks;
    obs;
  }

(* Returns [Some payload] only for a well-formed entry whose embedded
   key matches; anything else is corruption. *)
let decode_entry ~key content =
  let fail () = None in
  match String.index_opt content '\n' with
  | None -> fail ()
  | Some i1 ->
    if String.sub content 0 i1 <> header then fail ()
    else begin
      match String.index_from_opt content (i1 + 1) '\n' with
      | None -> fail ()
      | Some i2 ->
        if String.sub content (i1 + 1) (i2 - i1 - 1) <> key then fail ()
        else begin
          match String.index_from_opt content (i2 + 1) '\n' with
          | None -> fail ()
          | Some i3 -> (
            match
              int_of_string_opt (String.sub content (i2 + 1) (i3 - i2 - 1))
            with
            | None -> fail ()
            | Some len ->
              if len < 0 || String.length content < i3 + 1 + len then fail ()
              else Some (String.sub content (i3 + 1) len))
        end
    end

let disk_find t key =
  match t.disk with
  | None -> None
  | Some d ->
    let path = entry_path d key in
    if not (Sys.file_exists path) then None
    else begin
      match decode_entry ~key (read_file path) with
      | Some payload -> Some payload
      | None | (exception Sys_error _) ->
        t.stats.corrupted <- t.stats.corrupted + 1;
        count t "corrupted";
        (* move it aside so it cannot fail (or collide) again *)
        quarantine_item
          ~note:(fun () ->
            t.locks.quarantined <- t.locks.quarantined + 1;
            count t "quarantined")
          d.root path;
        None
    end

(* Returns whether the entry actually reached the disk tier.  A failed
   persist — real or injected — downgrades this entry to memory-only
   (the caller just inserted it there) and counts [io_failures]; a
   localization never aborts over a cache write. *)
let disk_write t key value =
  match t.disk with
  | None -> false
  | Some d ->
    let i = shard_index ~shards:d.shards key in
    (match Vfs.ensure_dir (shard_dir d.root i) with
    | Ok () -> ()
    | Error e -> note_io_failure ~obs:t.obs ~locks:t.locks e ~by:"store.io_failures");
    with_lock t d i (fun () ->
        let path = entry_path d key in
        let content =
          Printf.sprintf "%s\n%s\n%d\n%s" header key (String.length value) value
        in
        match Vfs.write_file_atomic path content with
        | Ok () -> true
        | Error e ->
          note_io_failure ~obs:t.obs ~locks:t.locks e ~by:"store.io_failures";
          false)

let disk_add t key value =
  match t.disk with
  | None -> ()
  | Some _ ->
    if disk_write t key value then begin
      t.stats.writes <- t.stats.writes + 1;
      count t "writes"
    end

(* Public lookups *)

(* Like [find], but reports which tier answered — the ledger records
   whether a verdict came from the memory front or the disk tier. *)
let find_tier t key =
  match Hashtbl.find_opt t.tbl key with
  | Some e ->
    t.stats.hits <- t.stats.hits + 1;
    count t "hits";
    touch t e;
    Some (e.e_value, `Mem)
  | None -> (
    match disk_find t key with
    | Some payload ->
      t.stats.disk_hits <- t.stats.disk_hits + 1;
      count t "disk_hits";
      insert_mem t key payload;
      Some (payload, `Disk)
    | None ->
      t.stats.misses <- t.stats.misses + 1;
      count t "misses";
      None)

let find t key = Option.map fst (find_tier t key)

let add t ~key value =
  insert_mem t key value;
  disk_add t key value

(* Resume support: re-populate the store from a replayed ledger without
   touching any counter — the uninterrupted run's counts are restored
   wholesale from the last checkpoint instead, so seeding must be
   invisible to the books. *)
let seed t ~key value =
  insert_mem t key value;
  ignore (disk_write t key value)

let restore_stats t (s : stats) =
  let d = t.stats in
  let bump name v0 v1 =
    (* mirror the jump into the metrics registry, like live increments *)
    if v1 <> v0 then
      match t.obs with
      | None -> ()
      | Some obs -> Exom_obs.Obs.add obs ("store." ^ name) (v1 - v0)
  in
  bump "hits" d.hits s.hits;
  bump "disk_hits" d.disk_hits s.disk_hits;
  bump "misses" d.misses s.misses;
  bump "evictions" d.evictions s.evictions;
  bump "corrupted" d.corrupted s.corrupted;
  bump "writes" d.writes s.writes;
  d.hits <- s.hits;
  d.disk_hits <- s.disk_hits;
  d.misses <- s.misses;
  d.evictions <- s.evictions;
  d.corrupted <- s.corrupted;
  d.writes <- s.writes
