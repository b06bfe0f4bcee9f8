(* The closure heap: the differential oracle of Sat.Heap.

   This is the VSIDS heap as the solver first had it.  It asks a closure
   for every score and swaps a moving variable one level at a time.
   Sat.Heap reads the score array in place and moves a hole instead; the
   property tests in test_sat.ml check that both remove variables in the
   same order, ties included. *)

type t = {
  heap : int Sat.Vec.t;            (* positions -> vars *)
  mutable indices : int array; (* var -> position in heap, or -1 *)
  score : int -> float;        (* activity lookup, owned by the solver *)
}

let create score =
  { heap = Sat.Vec.create (-1); indices = [||]; score }

let ensure_var t v =
  let n = Array.length t.indices in
  if v >= n then begin
    let n' = max (v + 1) (max 16 (2 * n)) in
    let indices = Array.make n' (-1) in
    Array.blit t.indices 0 indices 0 n;
    t.indices <- indices
  end

let in_heap t v = v < Array.length t.indices && t.indices.(v) >= 0
let is_empty t = Sat.Vec.is_empty t.heap
let size t = Sat.Vec.size t.heap

let left i = (2 * i) + 1
let right i = (2 * i) + 2
let parent i = (i - 1) / 2

let swap t i j =
  let vi = Sat.Vec.get t.heap i and vj = Sat.Vec.get t.heap j in
  Sat.Vec.set t.heap i vj;
  Sat.Vec.set t.heap j vi;
  t.indices.(vi) <- j;
  t.indices.(vj) <- i

let rec percolate_up t i =
  if i > 0 then begin
    let p = parent i in
    if t.score (Sat.Vec.get t.heap i) > t.score (Sat.Vec.get t.heap p) then begin
      swap t i p;
      percolate_up t p
    end
  end

let rec percolate_down t i =
  let n = Sat.Vec.size t.heap in
  let l = left i and r = right i in
  let largest = ref i in
  if l < n && t.score (Sat.Vec.get t.heap l) > t.score (Sat.Vec.get t.heap !largest)
  then largest := l;
  if r < n && t.score (Sat.Vec.get t.heap r) > t.score (Sat.Vec.get t.heap !largest)
  then largest := r;
  if !largest <> i then begin
    swap t i !largest;
    percolate_down t !largest
  end

let insert t v =
  ensure_var t v;
  if not (in_heap t v) then begin
    t.indices.(v) <- Sat.Vec.size t.heap;
    Sat.Vec.push t.heap v;
    percolate_up t t.indices.(v)
  end

(* Re-establish heap order after [v]'s activity increased. *)
let decrease t v = if in_heap t v then percolate_up t t.indices.(v)

let remove_max t =
  if is_empty t then invalid_arg "Heap.remove_max";
  let top = Sat.Vec.get t.heap 0 in
  let last = Sat.Vec.pop t.heap in
  t.indices.(top) <- -1;
  if not (Sat.Vec.is_empty t.heap) then begin
    Sat.Vec.set t.heap 0 last;
    t.indices.(last) <- 0;
    percolate_down t 0
  end;
  top
