(* The persistent verdict store: a content-addressed cache keyed by a
   hex digest, with an in-memory front and an optional on-disk tier
   that any number of processes may share.  The front is unbounded:
   every caller opens one handle per localization, so it holds at most
   one run's verdicts.

   Disk layout: one flat directory.

     DIR/<key>                 one file per entry
     DIR/quarantine/           rejected entries

   Entry format, versioned so future layouts can be rejected instead of
   misread:

     #exom-store v1
     <key>
     <payload-length>
     <payload bytes>

   The key is echoed inside the entry and checked on read: a file
   renamed, truncated or swapped on disk is detected, rejected (the
   [corrupted] counter) and moved into quarantine, never returned as a
   hit.  Writes go through a per-process temp file + rename, so a
   writer killed mid-entry leaves at most a [<key>.tmp.<pid>] file,
   which no lookup opens.

   No lock is needed: a verdict is a pure function of its key, so two
   writers racing on one key write identical bytes, their temp names
   differ, and the rename that publishes an entry is atomic.  Opening a
   store writes nothing.  A directory in an older layout (a [MANIFEST]
   and [shard-NNN/] subdirectories) is not read: its lookups miss.

   Within one process the store is coordinator-only by design — the
   batch planner resolves hits before dispatch and records results
   after the merge, so worker domains never touch it. *)

module Vfs = Exom_util.Vfs

let version = 1

let header = Printf.sprintf "#exom-store v%d" version

type stats = {
  mutable hits : int;  (* answered from the in-memory front *)
  mutable disk_hits : int;  (* answered from disk (then promoted) *)
  mutable misses : int;
  mutable corrupted : int;  (* disk entries rejected on read *)
  mutable writes : int;  (* entries persisted to disk *)
}

let snapshot s =
  { hits = s.hits; disk_hits = s.disk_hits; misses = s.misses;
    corrupted = s.corrupted; writes = s.writes }

let hit_rate s =
  let total = s.hits + s.disk_hits + s.misses in
  if total = 0 then 0.0
  else float_of_int (s.hits + s.disk_hits) /. float_of_int total

type t = {
  root : string option;  (* the disk tier's directory *)
  mem : (string, string) Hashtbl.t;
  stats : stats;
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

let stats t = t.stats

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

(* Disk tier *)

(* Degradation contract: a persist that fails — really or under an
   injected storm — downgrades the affected entry (or, when the
   directory cannot be created, the whole tier) to memory-only and
   counts [io_failures]; it never aborts a localization over a cache
   write. *)
let note_io_failure obs e =
  Vfs.ack e ~by:"store.io_failures";
  count_obs obs "io_failures"

(* Move a suspect entry aside so it cannot fail — or be misread —
   again.  Best-effort: a concurrent process may have moved it first. *)
let quarantine_seq = ref 0

let quarantine t root path =
  let q = Filename.concat root "quarantine" in
  (try Sys.mkdir q 0o755 with Sys_error _ -> ());
  incr quarantine_seq;
  let dst =
    Filename.concat q
      (Printf.sprintf "%s.%d.%d" (Filename.basename path) (Unix.getpid ())
         !quarantine_seq)
  in
  match Sys.rename path dst with
  | () -> count t "quarantined"
  | exception Sys_error _ -> ()

(* Returns [None] — memory tier only — when the directory cannot be
   created. *)
let open_disk ~obs root =
  match Vfs.ensure_dir root with
  | Error e ->
    note_io_failure obs e;
    None
  | Ok () ->
    if not (Sys.is_directory root) then
      invalid_arg (Printf.sprintf "Store.create: %s is not a directory" root);
    Some root

let create ?obs ?dir () =
  {
    root = Option.bind dir (open_disk ~obs);
    mem = Hashtbl.create 256;
    stats = { hits = 0; disk_hits = 0; misses = 0; corrupted = 0; writes = 0 };
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
  match t.root with
  | None -> None
  | Some root ->
    let path = Filename.concat root key in
    if not (Sys.file_exists path) then None
    else begin
      match Result.map (decode_entry ~key) (Vfs.read_file path) with
      | Ok (Some payload) -> Some payload
      | Ok None | Error _ ->
        t.stats.corrupted <- t.stats.corrupted + 1;
        count t "corrupted";
        quarantine t root path;
        None
    end

(* Returns whether the entry reached the disk tier.  A failed persist —
   real or injected — leaves this entry memory-only (the caller just
   inserted it there) and counts [io_failures]. *)
let disk_write t root key value =
  let content =
    Printf.sprintf "%s\n%s\n%d\n%s" header key (String.length value) value
  in
  match Vfs.write_file_atomic (Filename.concat root key) content with
  | Ok () -> true
  | Error e ->
    note_io_failure t.obs e;
    false

(* Public lookups *)

(* Like [find], but reports which tier answered — the ledger records
   whether a verdict came from the memory front or the disk tier. *)
let find_tier t key =
  match Hashtbl.find_opt t.mem key with
  | Some value ->
    t.stats.hits <- t.stats.hits + 1;
    count t "hits";
    Some (value, `Mem)
  | None -> (
    match disk_find t key with
    | Some payload ->
      t.stats.disk_hits <- t.stats.disk_hits + 1;
      count t "disk_hits";
      Hashtbl.replace t.mem key payload;
      Some (payload, `Disk)
    | None ->
      t.stats.misses <- t.stats.misses + 1;
      count t "misses";
      None)

let find t key = Option.map fst (find_tier t key)

let add t ~key value =
  Hashtbl.replace t.mem key value;
  match t.root with
  | Some root when disk_write t root key value ->
    t.stats.writes <- t.stats.writes + 1;
    count t "writes"
  | Some _ | None -> ()

(* Resume support: re-populate the store from a replayed ledger without
   touching any counter — the uninterrupted run's counts are restored
   wholesale from the last checkpoint instead, so seeding must be
   invisible to the books.  An entry already on disk holds these very
   bytes (content addressing), so it is left alone. *)
let seed t ~key value =
  Hashtbl.replace t.mem key value;
  match t.root with
  | Some root when not (Sys.file_exists (Filename.concat root key)) ->
    ignore (disk_write t root key value)
  | Some _ | None -> ()

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
  bump "corrupted" d.corrupted s.corrupted;
  bump "writes" d.writes s.writes;
  d.hits <- s.hits;
  d.disk_hits <- s.disk_hits;
  d.misses <- s.misses;
  d.corrupted <- s.corrupted;
  d.writes <- s.writes
