type t =
  | True
  | False
  | Atom of int
  | Not of t
  | And of t list
  | Or of t list
  | Implies of t * t
  | Iff of t * t

let atom v = Atom v

let neg = function
  | True -> False
  | False -> True
  | Not f -> f
  | f -> Not f

let conj fs =
  let fs = List.filter (fun f -> f <> True) fs in
  if List.exists (fun f -> f = False) fs then False
  else match fs with [] -> True | [ f ] -> f | _ -> And fs

let disj fs =
  let fs = List.filter (fun f -> f <> False) fs in
  if List.exists (fun f -> f = True) fs then True
  else match fs with [] -> False | [ f ] -> f | _ -> Or fs

let implies a b =
  match (a, b) with
  | True, b -> b
  | False, _ -> True
  | _, True -> True
  | a, False -> neg a
  | _ -> Implies (a, b)

let iff a b =
  match (a, b) with
  | True, b -> b
  | b, True -> b
  | False, b -> neg b
  | b, False -> neg b
  | _ -> Iff (a, b)

let at_most_one fs =
  let rec pairs = function
    | [] -> []
    | f :: rest -> List.map (fun g -> disj [ neg f; neg g ]) rest @ pairs rest
  in
  conj (pairs fs)

(* --- Tseitin ------------------------------------------------------------- *)

(* [define solver f] returns a literal [p] with clauses enforcing p <-> f.
   The encoding is the full (both-direction) Tseitin transform, so a
   defined literal can be asserted under either polarity. *)
let rec define solver f : Lit.t =
  let fresh () = Lit.of_var (Solver.new_var solver) in
  let add lits = ignore (Solver.add_clause solver lits : bool) in
  match f with
  | True ->
    let p = fresh () in
    add [ p ];
    p
  | False ->
    let p = fresh () in
    add [ Lit.neg p ];
    p
  | Atom v -> Lit.of_var v
  | Not f -> Lit.neg (define solver f)
  | And fs ->
    let ps = List.map (define solver) fs in
    let q = fresh () in
    List.iter (fun p -> add [ Lit.neg q; p ]) ps;
    add (q :: List.map Lit.neg ps);
    q
  | Or fs ->
    let ps = List.map (define solver) fs in
    let q = fresh () in
    List.iter (fun p -> add [ q; Lit.neg p ]) ps;
    add (Lit.neg q :: ps);
    q
  | Implies (a, b) -> define solver (Or [ Not a; b ])
  | Iff (a, b) ->
    let pa = define solver a and pb = define solver b in
    let q = fresh () in
    add [ Lit.neg q; Lit.neg pa; pb ];
    add [ Lit.neg q; pa; Lit.neg pb ];
    add [ q; pa; pb ];
    add [ q; Lit.neg pa; Lit.neg pb ];
    q

(* Assert [f] directly, clausifying top-level conjunction/disjunction
   structure without a definition variable where possible. *)
let assert_in solver f =
  let ok = ref true in
  let add lits = if not (Solver.add_clause solver lits) then ok := false in
  let rec assert_true = function
    | True -> ()
    | False -> add []
    | And fs -> List.iter assert_true fs
    | Or fs ->
      let lits = List.map (define solver) fs in
      add lits
    | Not f -> assert_false f
    | Atom v -> add [ Lit.of_var v ]
    | Implies (a, b) -> assert_true (Or [ Not a; b ])
    | Iff _ as f -> add [ define solver f ]
  and assert_false = function
    | True -> add []
    | False -> ()
    | Not f -> assert_true f
    | Atom v -> add [ Lit.neg (Lit.of_var v) ]
    | Or fs -> List.iter assert_false fs
    | And fs ->
      let lits = List.map (fun f -> Lit.neg (define solver f)) fs in
      add lits
    | Implies (a, b) ->
      assert_true a;
      assert_false b
    | Iff _ as f -> add [ Lit.neg (define solver f) ]
  in
  assert_true f;
  !ok
