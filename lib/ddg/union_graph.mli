(** The union dependence graph of the paper's §4: all unique static
    def-use dependences exercised over a set of test runs.  Used as an
    alternative, evidence-based backend for condition (iv) of potential
    dependences (see {!Exom_cfg.Potential} and the RS-backend ablation
    printed by [exom bench --all]). *)

type t

val create : unit -> t
val add_trace : t -> Exom_interp.Trace.t -> unit
val add_run : t -> Exom_interp.Interp.run -> unit
val collect : Exom_lang.Ast.program -> int list list -> t

(** Was a value defined at [def_sid] ever observed flowing to a use at
    [use_sid]? *)
val observed : t -> def_sid:int -> use_sid:int -> bool

(** Did [sid] execute in any recorded run? *)
val executed : t -> int -> bool

(** The filter to plug into {!Exom_cfg.Potential.create}: witnessed
    pairs pass; unwitnessed pairs whose definition *did* execute are
    discarded; never-executed definitions (the omission case) pass. *)
val evidence_filter : t -> def_sid:int -> use_sid:int -> bool

val size : t -> int
val runs : t -> int
