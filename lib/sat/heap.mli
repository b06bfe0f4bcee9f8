(** Binary max-heap over variable indices ordered by their score in a float
    array, with position tracking for in-place reordering — the order
    structure behind the VSIDS decision heuristic. *)

type t

(** [create scores] builds an empty heap over the variables
    [0 .. Array.length scores - 1].  [scores] is read, not copied, on every
    comparison, so raising a variable's score in place must be followed by
    {!decrease}.  Equal scores keep the order of the textbook swap-based
    heap: a parent yields only to a strictly greater child, and the left
    child wins a tie with the right. *)
val create : float array -> t

(** [set_scores t scores] makes [t] read [scores], which must hold the same
    scores for the variables [t] already knows, and extends its capacity to
    [Array.length scores]. *)
val set_scores : t -> float array -> unit

(** [clear t n] empties the heap, given that every variable it ever held is
    below [n]. *)
val clear : t -> int -> unit

val in_heap : t -> int -> bool
val is_empty : t -> bool
val size : t -> int
val insert : t -> int -> unit

(** Re-establish heap order after the variable's score increased. *)
val decrease : t -> int -> unit

val remove_max : t -> int
