(** Propositional formulas over integer atoms, with a Tseitin-style
    clausification into a {!Solver}.

    Atoms are solver variables (allocated with {!Solver.new_var}).  The
    feature-model layer builds its formulas here and clausifies them once;
    the Tseitin transform introduces fresh definition variables so the CNF
    is linear in the formula size. *)

type t =
  | True
  | False
  | Atom of int          (** a solver variable *)
  | Not of t
  | And of t list
  | Or of t list
  | Implies of t * t
  | Iff of t * t

val atom : int -> t
val neg : t -> t
val conj : t list -> t
val disj : t list -> t
val implies : t -> t -> t
val iff : t -> t -> t

(** At most one of the formulas holds (pairwise encoding). *)
val at_most_one : t list -> t

(** [assert_in solver f] clausifies [f] and asserts it into [solver].
    Returns [false] if the solver became trivially unsatisfiable. *)
val assert_in : Solver.t -> t -> bool
