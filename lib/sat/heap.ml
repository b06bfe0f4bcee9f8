(* Binary max-heap over variable indices ordered by their score in a float
   array, with position tracking so keys can be re-ordered in place.  This
   is the order structure behind the VSIDS decision heuristic.

   The score array is the solver's activity table itself: a comparison
   reads two floats straight from it, with no closure call and no boxed
   float.  The comparisons and tie-breaking are those of the textbook
   swap-based heap (a child replaces its parent only when strictly
   greater, the left child wins a tie with the right); percolation moves
   a hole instead of swapping, which visits the same positions. *)

type t = {
  mutable act : float array;   (* var -> score *)
  mutable heap : int array;    (* position -> var; the first [size] are live *)
  mutable size : int;
  mutable indices : int array; (* var -> position in heap, or -1 *)
}

let create act =
  let n = Array.length act in
  { act; heap = Array.make n 0; size = 0; indices = Array.make n (-1) }

let set_scores t act =
  let n = Array.length act and old = Array.length t.indices in
  if n > old then begin
    let indices = Array.make n (-1) in
    Array.blit t.indices 0 indices 0 old;
    t.indices <- indices;
    let heap = Array.make n 0 in
    Array.blit t.heap 0 heap 0 t.size;
    t.heap <- heap
  end;
  t.act <- act

let clear t n =
  Array.fill t.indices 0 n (-1);
  t.size <- 0

let in_heap t v = v < Array.length t.indices && t.indices.(v) >= 0
let is_empty t = t.size = 0
let size t = t.size

(* Move [v], whose slot is position [i], up past every parent it beats. *)
let percolate_up t i v =
  let act = t.act and heap = t.heap and indices = t.indices in
  let score = act.(v) in
  let i = ref i and climbing = ref true in
  while !climbing && !i > 0 do
    let p = (!i - 1) / 2 in
    let w = heap.(p) in
    if score > act.(w) then begin
      heap.(!i) <- w;
      indices.(w) <- !i;
      i := p
    end
    else climbing := false
  done;
  heap.(!i) <- v;
  indices.(v) <- !i

(* Move [v], whose slot is position [i], down past every child that beats
   it, taking the greater child (the left one on a tie). *)
let percolate_down t i v =
  let act = t.act and heap = t.heap and indices = t.indices and n = t.size in
  let score = act.(v) in
  let i = ref i and sinking = ref true in
  while !sinking do
    let l = (2 * !i) + 1 in
    let r = l + 1 in
    let best = if l < n && act.(heap.(l)) > score then l else -1 in
    let best =
      if r < n && act.(heap.(r)) > (if best < 0 then score else act.(heap.(l))) then r
      else best
    in
    if best < 0 then sinking := false
    else begin
      let w = heap.(best) in
      heap.(!i) <- w;
      indices.(w) <- !i;
      i := best
    end
  done;
  heap.(!i) <- v;
  indices.(v) <- !i

let insert t v =
  if not (in_heap t v) then begin
    let i = t.size in
    t.size <- i + 1;
    percolate_up t i v
  end

(* Re-establish heap order after [v]'s score increased. *)
let decrease t v = if in_heap t v then percolate_up t t.indices.(v) v

let remove_max t =
  if is_empty t then invalid_arg "Heap.remove_max";
  let top = t.heap.(0) in
  let last = t.heap.(t.size - 1) in
  t.size <- t.size - 1;
  t.indices.(top) <- -1;
  if t.size > 0 then percolate_down t 0 last;
  top
