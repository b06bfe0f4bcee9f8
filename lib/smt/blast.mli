(** Bit-blasting of terms onto the CDCL solver — the route the paper
    ascribes to Z3 for its address constraints (§IV-C).

    Booleans become literals; a width-w bit-vector becomes w literals (LSB
    first); enum values are bit-vectors of ceil(log2 n) bits constrained
    below the universe size; predicates over enum sorts are grounded over
    the finite universe.  All gates use the definitional (both-polarity)
    encoding so blasted literals can be assumed under either sign.

    The variable tables are exposed for model extraction by {!Solver}. *)

type ctx = {
  sat : Sat.Solver.t;
  true_lit : Sat.Lit.t;
  bool_memo : (Term.t, Sat.Lit.t) Hashtbl.t;
  bv_memo : (Term.t, Sat.Lit.t array) Hashtbl.t;
  bool_vars : (string, Sat.Lit.t) Hashtbl.t;
  bv_vars : (string, Sat.Lit.t array) Hashtbl.t;
  enum_vars : (string, string * Sat.Lit.t array) Hashtbl.t; (** name -> sort, bits *)
  pred_vars : (string, Sat.Lit.t) Hashtbl.t; (** key: "name(v1,...,vk)" *)
  pred_insts : (string, string list * Sat.Lit.t array) Hashtbl.t;
      (** name -> argument sorts, every instance of [pred_vars] in tuple
          order (the first argument varies slowest) *)
  enum_universe : string -> string array;
  sort_of : Term.t -> Term.sort;
}

val create :
  sat:Sat.Solver.t ->
  enum_universe:(string -> string array) ->
  sort_of:(Term.t -> Term.sort) ->
  ctx

(** Bits needed to encode a universe of [n] values (min 1). *)
val enum_width : int -> int

(** Blast a boolean term to a literal equivalent to it in every model.
    Raises [Invalid_argument] on non-boolean terms. *)
val blast_bool : ctx -> Term.t -> Sat.Lit.t

(** Blast a bit-vector or enum term to its bit literals. *)
val blast_bv : ctx -> Term.t -> Sat.Lit.t array
