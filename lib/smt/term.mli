(** Terms of the llhsc constraint language: quantifier-free booleans,
    fixed-width bit-vectors (width 1–64), finite enumeration sorts (the
    paper's "hybrid theory" string encoding), and uninterpreted predicates
    over enumeration sorts (the paper's presence predicates [R]/[C]).

    Universal quantification over an enumeration sort is finite and is
    expanded by {!Solver.forall_enum}; the term language itself stays
    quantifier-free, mirroring how Z3 would ground these axioms. *)

type sort =
  | Bool
  | Bitvec of int        (** width in bits, 1..64 *)
  | Enum of string       (** named finite sort; universe declared in solver *)

type bv_unop = Bv_neg | Bv_not
type bv_binop = Bv_add | Bv_sub | Bv_mul | Bv_and | Bv_or | Bv_xor | Bv_shl | Bv_lshr
type bv_cmp = Ult | Ule | Slt | Sle

type t =
  | True
  | False
  | Bool_var of string
  | Not of t
  | And of t list
  | Or of t list
  | Implies of t * t
  | Iff of t * t
  | Xor of t * t
  | Ite of t * t * t
  | Eq of t * t
  | Distinct of t list
  | Bv_const of { width : int; value : int64 }
  | Bv_var of string * int
  | Bv_unop of bv_unop * t
  | Bv_binop of bv_binop * t * t
  | Bv_cmp of bv_cmp * t * t
  | Bv_extract of { hi : int; lo : int; arg : t }
  | Bv_concat of t * t
  | Bv_extend of { signed : bool; by : int; arg : t }
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
val xor : t -> t -> t
val ite : t -> t -> t -> t
val eq : t -> t -> t
val distinct : t list -> t

(** [bv ~width v] builds a bit-vector constant; the value is truncated to
    [width] bits.  Raises [Invalid_argument] unless [1 <= width <= 64]. *)
val bv : width:int -> int64 -> t

val bv_of_int : width:int -> int -> t
val bv_var : string -> width:int -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val neg : t -> t
val band : t -> t -> t
val bor : t -> t -> t
val bxor : t -> t -> t
val bnot : t -> t
val shl : t -> t -> t
val lshr : t -> t -> t
val ult : t -> t -> t
val ule : t -> t -> t
val ugt : t -> t -> t
val uge : t -> t -> t
val slt : t -> t -> t
val sle : t -> t -> t
val extract : hi:int -> lo:int -> t -> t
val concat : t -> t -> t
val zero_extend : by:int -> t -> t
val sign_extend : by:int -> t -> t
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
