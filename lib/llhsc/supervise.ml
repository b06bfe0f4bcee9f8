(* The supervision state machine behind Shard.supervise, the one
   supervisor loop of the local pool and the fleet dispatcher.

   The state machine owns everything about task progress that does NOT
   depend on how workers are reached: the pending queue, the first-wins
   results array (duplicate suppression), per-task crash counts with
   poison quarantine, and per-worker lease clocks.  The loop keeps the
   connections and drives this machine through a handful of
   transitions:

     dispatch    -> Lease.start        (clock begins at hand-off)
     heartbeat   -> Lease.beat         (worker accepted; clock restarts)
     result      -> resolve            (`Fresh merges, `Duplicate drops)
     worker dies -> record_crash per leased unresolved task
                     (`Reassign requeues front; `Quarantine poisons)
     deadline    -> Lease.expired      (the loop drops the worker)

   The byte-identity argument (any fault schedule merges to the
   --jobs 1 report) rests on first-wins resolution and deterministic
   task content. *)

module Lease = struct
  (* The one in-flight (task, clock-start) of ONE worker. *)
  type t = { mutable slot : (int * float) option }

  let create () = { slot = None }
  let start l task now = l.slot <- Some (task, now)
  let task l = Option.map fst l.slot
  let holds l i = task l = Some i
  let beat l i now = if holds l i then start l i now
  let finish l i = if holds l i then l.slot <- None

  let expired l ~deadline ~now =
    match l.slot with
    | Some (i, t0) when now -. t0 > deadline -> Some i
    | _ -> None

  let next_expiry l ~deadline ~now =
    Option.map (fun (_, t0) -> t0 +. deadline -. now) l.slot
end

type 'r t = {
  n : int;
  results : 'r option array;
  mutable pending : int list;
  crash_count : int array;
  poisoned : bool array;
  mutable quarantined : int;
  mutable done_count : int;
}

let create n =
  {
    n;
    results = Array.make n None;
    pending = List.init n Fun.id;
    crash_count = Array.make n 0;
    poisoned = Array.make n false;
    quarantined = 0;
    done_count = 0;
  }

let results t = t.results
let has_pending t = t.pending <> []
let pending_count t = List.length t.pending

let next t =
  match t.pending with
  | [] -> None
  | i :: rest ->
    t.pending <- rest;
    Some i

(* Requeue at the FRONT: a reassigned task should be retried before new
   work so its (bounded) crash budget is consumed promptly. *)
let requeue t i = t.pending <- i :: List.filter (fun j -> j <> i) t.pending

let resolve t i r =
  if Option.is_some t.results.(i) then `Duplicate
  else begin
    t.results.(i) <- Some r;
    t.done_count <- t.done_count + 1;
    (* The task may still sit on the pending queue (reassigned after a
       lease expiry while a slow first worker finished anyway): a
       resolved task must never be dispatched again. *)
    t.pending <- List.filter (fun j -> j <> i) t.pending;
    `Fresh
  end

let crashes t i = t.crash_count.(i)
let is_quarantined t i = t.poisoned.(i)

let record_crash t i =
  if Option.is_some t.results.(i) then `Resolved
  else begin
    t.crash_count.(i) <- t.crash_count.(i) + 1;
    if t.crash_count.(i) >= 2 then begin
      if not t.poisoned.(i) then begin
        t.poisoned.(i) <- true;
        t.quarantined <- t.quarantined + 1;
        (* A poisoned task leaves the queue: only the in-process sweep
           after the pool retires may touch it again. *)
        t.pending <- List.filter (fun j -> j <> i) t.pending
      end;
      `Quarantine t.crash_count.(i)
    end
    else begin
      requeue t i;
      `Reassign
    end
  end

let unfinished t = t.done_count + t.quarantined < t.n

let unresolved t =
  List.filter (fun i -> Option.is_none t.results.(i)) (List.init t.n Fun.id)
