(* Bit-blasting of terms onto the CDCL solver, the route the paper ascribes
   to Z3 for its address constraints ("the technique of bit-blasting is used
   ... to encode memory addresses inside bit-vectors which are then
   translated into a SAT problem", §IV-C).

   Booleans become literals; a bit-vector of width w becomes an array of w
   literals, least-significant bit first.  Enum values are bit-vectors of
   ceil(log2 n) bits constrained below the universe size.  All gates use the
   definitional (both-polarity) encoding so blasted literals can be used as
   assumptions under either sign. *)

module S = Sat.Solver
module L = Sat.Lit

(* Literal arithmetic is written out here, not called from [Sat.Lit]: dune's
   default profile compiles every library [-opaque], so [L.neg] and
   [L.equal] would stay calls on every gate.  A literal is [2v] or [2v+1]:
   [mk_not] flips the low bit, and literals compare with [=]. *)

type ctx = {
  sat : S.t;
  true_lit : L.t;
  bool_memo : (Term.t, L.t) Hashtbl.t;
  bv_memo : (Term.t, L.t array) Hashtbl.t;
  bool_vars : (string, L.t) Hashtbl.t;
  bv_vars : (string, L.t array) Hashtbl.t;
  enum_vars : (string, string * L.t array) Hashtbl.t; (* name -> sort, bits *)
  pred_vars : (string, L.t) Hashtbl.t;
  pred_insts : (string, string list * L.t array) Hashtbl.t;
  enum_universe : string -> string array; (* resolved by the Solver layer *)
  sort_of : Term.t -> Term.sort;
}

let create ~sat ~enum_universe ~sort_of =
  let v = S.new_var sat in
  let true_lit = v lsl 1 in
  ignore (S.add_clause sat [ true_lit ] : bool);
  {
    sat;
    true_lit;
    bool_memo = Hashtbl.create 256;
    bv_memo = Hashtbl.create 256;
    bool_vars = Hashtbl.create 64;
    bv_vars = Hashtbl.create 64;
    enum_vars = Hashtbl.create 64;
    pred_vars = Hashtbl.create 64;
    pred_insts = Hashtbl.create 64;
    enum_universe;
    sort_of;
  }

let false_lit ctx = ctx.true_lit lxor 1
let fresh ctx = S.new_var ctx.sat lsl 1
let add ctx lits = ignore (S.add_clause ctx.sat lits : bool)

(* --- gates ---------------------------------------------------------------- *)

let mk_not (l : L.t) = l lxor 1

let mk_and ctx ls =
  let ls = List.filter (fun l -> l <> ctx.true_lit) ls in
  if List.exists (fun l -> l = false_lit ctx) ls then false_lit ctx
  else
    match ls with
    | [] -> ctx.true_lit
    | [ l ] -> l
    | _ ->
      let r = fresh ctx in
      List.iter (fun l -> add ctx [ mk_not r; l ]) ls;
      add ctx (r :: List.map mk_not ls);
      r

let mk_or ctx ls =
  let ls = List.filter (fun l -> l <> false_lit ctx) ls in
  if List.exists (fun l -> l = ctx.true_lit) ls then ctx.true_lit
  else
    match ls with
    | [] -> false_lit ctx
    | [ l ] -> l
    | _ ->
      let r = fresh ctx in
      List.iter (fun l -> add ctx [ r; mk_not l ]) ls;
      add ctx (mk_not r :: ls);
      r

(* Two- and three-input forms of [mk_and]/[mk_or] for the circuits below:
   the same constant folding, and the same fresh variable and clauses in the
   same order, without building lists of inputs. *)
let and2 ctx a b =
  let f = false_lit ctx in
  if a = f || b = f then f
  else if a = ctx.true_lit then b
  else if b = ctx.true_lit then a
  else begin
    let r = fresh ctx in
    add ctx [ mk_not r; a ];
    add ctx [ mk_not r; b ];
    add ctx [ r; mk_not a; mk_not b ];
    r
  end

let or2 ctx a b =
  let t = ctx.true_lit in
  if a = t || b = t then t
  else if a = false_lit ctx then b
  else if b = false_lit ctx then a
  else begin
    let r = fresh ctx in
    add ctx [ r; mk_not a ];
    add ctx [ r; mk_not b ];
    add ctx [ mk_not r; a; b ];
    r
  end

let or3 ctx a b c =
  let t = ctx.true_lit and f = false_lit ctx in
  if a = t || b = t || c = t then t
  else if a = f then or2 ctx b c
  else if b = f then or2 ctx a c
  else if c = f then or2 ctx a b
  else begin
    let r = fresh ctx in
    add ctx [ r; mk_not a ];
    add ctx [ r; mk_not b ];
    add ctx [ r; mk_not c ];
    add ctx [ mk_not r; a; b; c ];
    r
  end

let mk_xor ctx a b =
  if a = false_lit ctx then b
  else if b = false_lit ctx then a
  else if a = ctx.true_lit then mk_not b
  else if b = ctx.true_lit then mk_not a
  else begin
    let r = fresh ctx in
    add ctx [ mk_not r; a; b ];
    add ctx [ mk_not r; mk_not a; mk_not b ];
    add ctx [ r; mk_not a; b ];
    add ctx [ r; a; mk_not b ];
    r
  end

let mk_iff ctx a b = mk_not (mk_xor ctx a b)

(* full adder: returns (sum, carry_out).  The carry's products are built
   b·cin, a·cin, a·b, in that order: the clause stream is part of the
   report contract (test_smt's cnf-identity digests pin it). *)
let full_adder ctx a b cin =
  let sum = mk_xor ctx (mk_xor ctx a b) cin in
  let bc = and2 ctx b cin in
  let ac = and2 ctx a cin in
  let ab = and2 ctx a b in
  (sum, or3 ctx ab ac bc)

(* --- bit-vector circuits --------------------------------------------------- *)

let bv_const ctx ~width value =
  Array.init width (fun i ->
      if Int64.logand (Int64.shift_right_logical value i) 1L = 1L then ctx.true_lit
      else false_lit ctx)

let all_false ctx a = Array.for_all (fun l -> l = false_lit ctx) a

(* Adding zero with no carry in: every full adder would fold to (x, false)
   without a fresh variable or a clause, so return the other operand. *)
let ripple_add ctx a b cin =
  if cin = false_lit ctx && all_false ctx b then a
  else if cin = false_lit ctx && all_false ctx a then b
  else begin
    let w = Array.length a in
    let out = Array.make w cin in
    let carry = ref cin in
    for i = 0 to w - 1 do
      let s, c = full_adder ctx a.(i) b.(i) !carry in
      out.(i) <- s;
      carry := c
    done;
    out
  end

let bv_add ctx a b = ripple_add ctx a b (false_lit ctx)

(* Shift-and-add.  A row whose multiplier bit is the constant false is all
   false and would add nothing, so it is skipped. *)
let bv_mul ctx a b =
  let w = Array.length a in
  let acc = ref (bv_const ctx ~width:w 0L) in
  for i = 0 to w - 1 do
    if b.(i) <> false_lit ctx then begin
      let partial =
        Array.init w (fun j -> if j < i then false_lit ctx else and2 ctx a.(j - i) b.(i))
      in
      acc := bv_add ctx !acc partial
    end
  done;
  !acc

let bv_eq ctx a b =
  mk_and ctx (List.init (Array.length a) (fun i -> mk_iff ctx a.(i) b.(i)))

let bv_ult ctx a b =
  let w = Array.length a in
  let res = ref (false_lit ctx) in
  for i = 0 to w - 1 do
    let lt_here = and2 ctx (mk_not a.(i)) b.(i) in
    let eq_here = mk_iff ctx a.(i) b.(i) in
    res := or2 ctx lt_here (and2 ctx eq_here !res)
  done;
  !res

let bv_ule ctx a b = mk_not (bv_ult ctx b a)

(* --- enum encoding --------------------------------------------------------- *)

let enum_width n =
  let rec go w = if 1 lsl w >= n then w else go (w + 1) in
  max 1 (go 0)

(* index of a value in its universe *)
let enum_index ctx sort value =
  let universe = ctx.enum_universe sort in
  let rec find i =
    if i >= Array.length universe then
      Fmt.invalid_arg "enum value %S not in sort %s" value sort
    else if String.equal universe.(i) value then i
    else find (i + 1)
  in
  find 0

(* --- predicates --------------------------------------------------------------

   A predicate over enum sorts is grounded over the product of their
   universes: one instance variable per tuple, named in [pred_vars] by
   "name(v1,...,vk)".  Tuples go in lexicographic order of universe
   indices, the first argument varying slowest.  The first grounding of a
   predicate creates all its instances, so that order numbers them.  An
   application to constants looks its instance up in [pred_insts], an
   array built from those names on the first such application. *)

(* Every index tuple over universes of the given sizes, in tuple order. *)
let rec index_tuples = function
  | [] -> [ [] ]
  | n :: rest ->
    let tails = index_tuples rest in
    List.concat_map (fun i -> List.map (fun tl -> i :: tl) tails) (List.init n Fun.id)

let instance_lit ctx name values =
  let key = name ^ "(" ^ String.concat "," values ^ ")" in
  match Hashtbl.find_opt ctx.pred_vars key with
  | Some l -> l
  | None ->
    let l = fresh ctx in
    Hashtbl.add ctx.pred_vars key l;
    l

let value_names ctx sorts idx = List.map2 (fun s i -> (ctx.enum_universe s).(i)) sorts idx

(* The instances of [name] over [sorts] in tuple order, created on first
   use. *)
let instances ctx name sorts =
  match Hashtbl.find_opt ctx.pred_insts name with
  | Some (sorts', insts) when sorts' = sorts -> insts
  | _ ->
    let sizes = List.map (fun s -> Array.length (ctx.enum_universe s)) sorts in
    let insts =
      Array.of_list
        (List.map (fun idx -> instance_lit ctx name (value_names ctx sorts idx))
           (index_tuples sizes))
    in
    Hashtbl.replace ctx.pred_insts name (sorts, insts);
    insts

(* [name] applied to enum constants.  Grounding would match every tuple
   against constants, so every case but one folds to false and the one
   left is the instance itself: no gate, no clause. *)
let constant_instance ctx name sorts args =
  let index =
    List.fold_left2
      (fun acc s a ->
        match a with
        | Term.Enum_const { value; _ } ->
          let i = enum_index ctx s value in
          (acc * Array.length (ctx.enum_universe s)) + i
        | _ -> assert false)
      0 sorts args
  in
  (instances ctx name sorts).(index)

(* --- main blaster ----------------------------------------------------------- *)

let rec blast_bool ctx (t : Term.t) : L.t =
  match Hashtbl.find_opt ctx.bool_memo t with
  | Some l -> l
  | None ->
    let l =
      match t with
      | True -> ctx.true_lit
      | False -> false_lit ctx
      | Bool_var name ->
        (match Hashtbl.find_opt ctx.bool_vars name with
         | Some l -> l
         | None ->
           let l = fresh ctx in
           Hashtbl.add ctx.bool_vars name l;
           l)
      | Not t -> mk_not (blast_bool ctx t)
      | And ts -> mk_and ctx (List.map (blast_bool ctx) ts)
      | Or ts -> mk_or ctx (List.map (blast_bool ctx) ts)
      | Implies (a, b) ->
        (* [b] is blasted first: blasting order numbers the variables. *)
        let lb = blast_bool ctx b in
        or2 ctx (mk_not (blast_bool ctx a)) lb
      | Iff (a, b) -> mk_iff ctx (blast_bool ctx a) (blast_bool ctx b)
      | Eq (a, b) ->
        (match (ctx.sort_of a, a, b) with
         | Bool, _, _ -> mk_iff ctx (blast_bool ctx a) (blast_bool ctx b)
         | Enum _, Enum_const { sort; value = u }, Enum_const { sort = sort'; value = v }
           when String.equal sort sort' ->
           (* The bit arrays would fold to a constant: compare the indices.
              [b] is looked up first, as the generic call blasts it first,
              so an unknown value fails the same way. *)
           let j = enum_index ctx sort v in
           if enum_index ctx sort u = j then ctx.true_lit else false_lit ctx
         | (Bitvec _ | Enum _), _, _ -> bv_eq ctx (blast_bv ctx a) (blast_bv ctx b))
      | Distinct ts ->
        let rec pairs = function
          | [] -> []
          | x :: rest -> List.map (fun y -> (x, y)) rest @ pairs rest
        in
        let distinct_pair (a, b) =
          match ctx.sort_of a with
          | Bool -> mk_xor ctx (blast_bool ctx a) (blast_bool ctx b)
          | Bitvec _ | Enum _ -> mk_not (bv_eq ctx (blast_bv ctx a) (blast_bv ctx b))
        in
        mk_and ctx (List.map distinct_pair (pairs ts))
      | Bv_cmp (op, a, b) ->
        let ba = blast_bv ctx a and bb = blast_bv ctx b in
        (match op with Ult -> bv_ult ctx ba bb | Ule -> bv_ule ctx ba bb)
      | Pred (name, args) ->
        let arg_sorts =
          List.map
            (fun a ->
              match ctx.sort_of a with
              | Enum s -> s
              | Bool | Bitvec _ -> Fmt.invalid_arg "predicate %s on non-enum" name)
            args
        in
        if List.for_all (function Term.Enum_const _ -> true | _ -> false) args then
          constant_instance ctx name arg_sorts args
        else ground ctx name arg_sorts args
      | Bv_const _ | Bv_var _ | Bv_mul _ | Bv_zero_extend _ | Enum_const _ | Enum_var _ ->
        Fmt.invalid_arg "blast_bool: term %a is not boolean" Term.pp t
    in
    Hashtbl.add ctx.bool_memo t l;
    l

(* [name] applied to [args]: one case per tuple, its instance and the
   arguments' match with the tuple's constants. *)
and ground ctx name sorts args =
  let arg_bits = List.map (blast_bv ctx) args in
  let sizes = List.map (fun s -> Array.length (ctx.enum_universe s)) sorts in
  let cases =
    List.map
      (fun idx ->
        let matches =
          List.map2
            (fun bits i -> bv_eq ctx bits (bv_const ctx ~width:(Array.length bits) (Int64.of_int i)))
            arg_bits idx
        in
        mk_and ctx (instance_lit ctx name (value_names ctx sorts idx) :: matches))
      (index_tuples sizes)
  in
  mk_or ctx cases

and blast_bv ctx (t : Term.t) : L.t array =
  match Hashtbl.find_opt ctx.bv_memo t with
  | Some bits -> bits
  | None ->
    let bits =
      match t with
      | Bv_const { width; value } -> bv_const ctx ~width value
      | Bv_var (name, width) ->
        (match Hashtbl.find_opt ctx.bv_vars name with
         | Some bits -> bits
         | None ->
           let bits = Array.init width (fun _ -> fresh ctx) in
           Hashtbl.add ctx.bv_vars name bits;
           bits)
      | Bv_mul (a, b) ->
        let ba = blast_bv ctx a and bb = blast_bv ctx b in
        bv_mul ctx ba bb
      | Bv_zero_extend { by; arg } ->
        let bits = blast_bv ctx arg in
        let w = Array.length bits in
        Array.init (w + by) (fun i -> if i < w then bits.(i) else false_lit ctx)
      | Enum_const { sort; value } ->
        let universe = ctx.enum_universe sort in
        let width = enum_width (Array.length universe) in
        bv_const ctx ~width (Int64.of_int (enum_index ctx sort value))
      | Enum_var (name, sort) ->
        (match Hashtbl.find_opt ctx.enum_vars name with
         | Some (_, bits) -> bits
         | None ->
           let universe = ctx.enum_universe sort in
           let n = Array.length universe in
           let width = enum_width n in
           let bits = Array.init width (fun _ -> fresh ctx) in
           Hashtbl.add ctx.enum_vars name (sort, bits);
           (* Constrain the encoding below the universe size (no-op when the
              universe exactly fills the width). *)
           if n < 1 lsl width then begin
             let bound = bv_const ctx ~width (Int64.of_int n) in
             add ctx [ bv_ult ctx bits bound ]
           end;
           bits)
      | True | False | Bool_var _ | Not _ | And _ | Or _ | Implies _ | Iff _ | Eq _
      | Distinct _ | Bv_cmp _ | Pred _ ->
        Fmt.invalid_arg "blast_bv: term %a is not a bit-vector" Term.pp t
    in
    Hashtbl.add ctx.bv_memo t bits;
    bits
