(** Terms of the llhsc constraint language: quantifier-free booleans,
    fixed-width bit-vectors (width 1–64), finite enumeration sorts (the
    paper's "hybrid theory" string encoding), and uninterpreted predicates
    over enumeration sorts (the paper's presence predicates [R]/[C]).

    The bit-vector operators are the ones the checkers build: products,
    zero extension, equality and unsigned comparison.  Every term here is
    trusted by a certified verdict (its sort, circuit and interpretation),
    so an operator joins only with a caller.

    Universal quantification over an enumeration sort is finite and is
    expanded by {!Solver.forall_enum}; the term language itself stays
    quantifier-free, mirroring how Z3 would ground these axioms. *)

type sort =
  | Bool
  | Bitvec of int        (** width in bits, 1..64 *)
  | Enum of string       (** named finite sort; universe declared in solver *)

type bv_cmp = Ult | Ule

type t =
  | True
  | False
  | Bool_var of string
  | Not of t
  | And of t list
  | Or of t list
  | Implies of t * t
  | Iff of t * t
  | Eq of t * t
  | Distinct of t list
  | Bv_const of { width : int; value : int64 }
  | Bv_var of string * int
  | Bv_mul of t * t
  | Bv_cmp of bv_cmp * t * t
  | Bv_zero_extend of { by : int; arg : t }
  | Enum_const of { sort : string; value : string }
  | Enum_var of string * string  (** variable name, sort name *)
  | Pred of string * t list      (** uninterpreted predicate over enum terms *)

(** {1 Smart constructors} *)

val tt : t
val ff : t
val bool_var : string -> t
val not_ : t -> t
val and_ : t list -> t
val or_ : t list -> t
val implies : t -> t -> t
val iff : t -> t -> t
val eq : t -> t -> t
val distinct : t list -> t

(** [bv ~width v] builds a bit-vector constant; the value is truncated to
    [width] bits.  Raises [Invalid_argument] unless [1 <= width <= 64]. *)
val bv : width:int -> int64 -> t

val bv_of_int : width:int -> int -> t
val bv_var : string -> width:int -> t
val mul : t -> t -> t
val ult : t -> t -> t
val ule : t -> t -> t
val uge : t -> t -> t
val zero_extend : by:int -> t -> t
val enum : sort:string -> string -> t
val enum_var : string -> sort:string -> t
val pred : string -> t list -> t

(** {1 Sort checking} *)

exception Sort_error of string

(** [sort_of ~enum_sorts t] computes the sort, raising {!Sort_error} on
    ill-sorted terms.  [enum_sorts] resolves enum sort universes (used to
    check that enum constants belong to their sort). *)
val sort_of : enum_sorts:(string -> string array option) -> t -> sort

val pp_sort : Format.formatter -> sort -> unit

(** SMT-LIB2-flavoured printer (for diagnostics and golden tests). *)
val pp : Format.formatter -> t -> unit

val to_string : t -> string

val equal_sort : sort -> sort -> bool
