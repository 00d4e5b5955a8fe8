(** The benchmark model: a correct MCL program plus seeded faults given
    as expression-level line mutations (preserving statement ids so the
    faulty and corrected runs align). *)

type fault = {
  fid : string;
  description : string;
  pattern : string;  (** unique substring of the line to mutate *)
  replacement : string;
  failing_input : int list;
}

type t = {
  name : string;
  description : string;
  error_type : string;
  source : string;
  faults : fault list;
  test_inputs : int list list;
}

(** Length-prefixed character codes — the text input convention of the
    benchmark programs. *)
val input_of_string : string -> int list

(** Comma- or space-separated integers (the CLI's [--input]); [Error]
    names the first token that is not an integer. *)
val ints_of_string : string -> (int list, string) result

(** A job count (the CLI's [-j]): an integer >= 0, where 0 means one
    job per core. *)
val jobs_of_string : string -> (int, string) result

(** A suite fault reference [BENCH/FID] (the CLI's [--fault]), split
    at the first [/]; neither part may be empty. *)
val fault_ref_of_string : string -> (string * string, string) result

(** These raise [Invalid_argument] when the pattern is absent. *)
val fault_line : t -> fault -> int

val faulty_source : t -> fault -> string
val root_sids : t -> fault -> Exom_lang.Ast.program -> int list

val loc_count : t -> int
val procedure_count : Exom_lang.Ast.program -> int
