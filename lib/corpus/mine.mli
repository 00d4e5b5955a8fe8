(** The corpus miner: aggregate campaign outcome rows into feature
    tables — which execution features (program size, fault class,
    predicate density) predict diagnosis outcome (located rate,
    iterations, verification count).  The rendered tables are a
    byte-deterministic function of the rows. *)

(** One aggregation bucket. *)
type bucket = {
  b_key : string;  (** class name, family name, or range label *)
  b_n : int;  (** rows in the bucket *)
  b_located : int;
  b_not_located : int;  (** the NOT_ID rows: ran, root never reached *)
  b_failed : int;  (** no_failure + error rows *)
  b_mean_iterations : float;  (** over rows that ran *)
  b_mean_verifications : float;
}

type table = {
  mi_total : int;
  mi_located : int;
  mi_not_located : int;
  mi_failed : int;
  mi_by_class : bucket list;
  mi_by_family : bucket list;
  mi_by_size : bucket list;  (** statement-count ranges *)
  mi_by_density : bucket list;  (** predicates-per-statement ranges *)
}

val mine : Campaign.outcome list -> table

(** Human-readable summary. *)
val render : table -> string
