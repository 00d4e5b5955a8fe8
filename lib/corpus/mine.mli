(** The corpus miner: aggregate campaign outcome rows into the feature
    tables the evidence-driven-ranking work consumes — which execution
    features (program size, fault class, predicate density) predict
    diagnosis outcome (located rate, iterations, verification count).

    The output is a single JSON document
    [{"schema":"exom.corpus.mine","version":1,...}] plus a rendered
    text summary; both are byte-deterministic functions of the rows.
    The schema and the size and density bucket keys are
    {!Exom_rank.Rank}'s, so the ranker reads what this module writes. *)

(** One aggregation bucket. *)
type bucket = {
  b_key : string;  (** class name, family name, or range label *)
  b_n : int;  (** rows in the bucket *)
  b_located : int;
  b_not_located : int;  (** the NOT_ID rows: ran, root never reached *)
  b_failed : int;  (** no_failure + error rows *)
  b_mean_iterations : float;  (** over rows that ran *)
  b_mean_verifications : float;
  b_mean_verify_queries : float;
  b_mean_store_hits : float;  (** memory + disk tiers *)
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

(** The JSON document, newline-terminated. *)
val table_to_string : table -> string

val table_of_string : string -> (table, string) result

(** Human-readable summary. *)
val render : table -> string
