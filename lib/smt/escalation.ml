(* Retry-with-escalation policies for inconclusive solver queries.

   Rung parameters are chosen to make consecutive attempts explore
   *different* parts of the search tree, not just search longer: budgets
   grow geometrically (x4 per rung, so three attempts cost at most ~1.3x a
   single run at the top budget), phases flip then randomize, and the VSIDS
   decay alternates between aggressive (0.8: the heuristic chases recent
   conflicts) and conservative (0.99: activity accumulates globally). *)

type step = {
  scale : int;
  seed : int;
  polarity : Sat.Solver.polarity_mode;
  var_decay : float option;
}

type t = { steps : step list }

let none = { steps = [] }

(* Per-rung seeds: any fixed distinct constants work; these are splitmix64
   increments, convenient well-mixed odd numbers. *)
let rung_seed rung = 0x9E3779B9 + (rung * 0x85EBCA6B)

let rung_polarity rung =
  match rung mod 4 with
  | 0 -> Sat.Solver.Phase_inverted
  | 1 -> Sat.Solver.Phase_random
  | 2 -> Sat.Solver.Phase_false
  | _ -> Sat.Solver.Phase_true

let rung_decay rung = Some (if rung mod 2 = 0 then 0.8 else 0.99)

let ladder ~attempts () =
  if attempts <= 1 then none
  else
    {
      steps =
        List.init (attempts - 1) (fun rung ->
            {
              scale = int_of_float (4. ** float_of_int (rung + 1));
              seed = rung_seed rung;
              polarity = rung_polarity rung;
              var_decay = rung_decay rung;
            });
    }

let default = ladder ~attempts:3 ()

let scale_budget budget scale =
  match budget with
  | None -> None
  | Some (b : Sat.Solver.budget) ->
    let counter = Option.map (fun n ->
        (* Saturating multiply: budgets near max_int must not wrap. *)
        if n > max_int / max 1 scale then max_int else n * scale)
    in
    Some
      {
        Sat.Solver.max_conflicts = counter b.Sat.Solver.max_conflicts;
        max_decisions = counter b.Sat.Solver.max_decisions;
        max_propagations = counter b.Sat.Solver.max_propagations;
        time_limit =
          Option.map (fun s -> s *. float_of_int scale) b.Sat.Solver.time_limit;
      }

let pp_polarity ppf (m : Sat.Solver.polarity_mode) =
  Fmt.string ppf
    (match m with
     | Sat.Solver.Phase_saved -> "saved"
     | Phase_false -> "false"
     | Phase_true -> "true"
     | Phase_inverted -> "inverted"
     | Phase_random -> "random")

let pp_step ppf s =
  Fmt.pf ppf "x%d seed=%#x polarity=%a decay=%s" s.scale s.seed pp_polarity
    s.polarity
    (match s.var_decay with Some d -> Fmt.str "%.2f" d | None -> "default")
