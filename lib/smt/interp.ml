(* Reference interpreter for terms under a total assignment of variables.
   Serves two purposes: evaluating terms in a model returned by the solver,
   and differential testing of the bit-blaster (the interpreter and the
   blasted circuit must agree on every term). *)

type value =
  | V_bool of bool
  | V_bv of { width : int; value : int64 }
  | V_enum of { sort : string; value : string }

type env = {
  bool_var : string -> bool;
  bv_var : string -> int64;
  enum_var : string -> string;
  pred : string -> string list -> bool;
}

exception Eval_error of string

let error fmt = Fmt.kstr (fun msg -> raise (Eval_error msg)) fmt

let mask width v =
  if width = 64 then v else Int64.logand v (Int64.sub (Int64.shift_left 1L width) 1L)

let pp_value ppf = function
  | V_bool b -> Fmt.bool ppf b
  | V_bv { width; value } -> Fmt.pf ppf "#x%Lx[%d]" value width
  | V_enum { value; _ } -> Fmt.pf ppf "%S" value

let as_bool = function V_bool b -> b | v -> error "expected bool, got %a" pp_value v

let as_bv = function
  | V_bv { width; value } -> (width, value)
  | v -> error "expected bit-vector, got %a" pp_value v

let rec eval env (t : Term.t) : value =
  match t with
  | True -> V_bool true
  | False -> V_bool false
  | Bool_var name -> V_bool (env.bool_var name)
  | Not t -> V_bool (not (as_bool (eval env t)))
  | And ts -> V_bool (List.for_all (fun t -> as_bool (eval env t)) ts)
  | Or ts -> V_bool (List.exists (fun t -> as_bool (eval env t)) ts)
  | Implies (a, b) -> V_bool ((not (as_bool (eval env a))) || as_bool (eval env b))
  | Iff (a, b) -> V_bool (as_bool (eval env a) = as_bool (eval env b))
  | Eq (a, b) -> V_bool (value_equal (eval env a) (eval env b))
  | Distinct ts ->
    let vs = List.map (eval env) ts in
    let rec all_distinct = function
      | [] -> true
      | v :: rest -> (not (List.exists (value_equal v) rest)) && all_distinct rest
    in
    V_bool (all_distinct vs)
  | Bv_const { width; value } -> V_bv { width; value = mask width value }
  | Bv_var (name, width) -> V_bv { width; value = mask width (env.bv_var name) }
  | Bv_mul (a, b) ->
    let w, va = as_bv (eval env a) in
    let _, vb = as_bv (eval env b) in
    V_bv { width = w; value = mask w (Int64.mul va vb) }
  | Bv_cmp (op, a, b) ->
    let _, va = as_bv (eval env a) in
    let _, vb = as_bv (eval env b) in
    let c = Int64.unsigned_compare va vb in
    V_bool (match op with Term.Ult -> c < 0 | Term.Ule -> c <= 0)
  | Bv_zero_extend { by; arg } ->
    let w, v = as_bv (eval env arg) in
    V_bv { width = w + by; value = v }
  | Enum_const { sort; value } -> V_enum { sort; value }
  | Enum_var (name, sort) -> V_enum { sort; value = env.enum_var name }
  | Pred (name, args) ->
    let values =
      List.map
        (fun a ->
          match eval env a with
          | V_enum { value; _ } -> value
          | v -> error "predicate %s argument evaluated to %a" name pp_value v)
        args
    in
    V_bool (env.pred name values)

and value_equal a b =
  match (a, b) with
  | V_bool x, V_bool y -> x = y
  | V_bv { width = w; value = x }, V_bv { width = w'; value = y } -> w = w' && Int64.equal x y
  | V_enum { sort = s; value = x }, V_enum { sort = s'; value = y } ->
    String.equal s s' && String.equal x y
  | (V_bool _ | V_bv _ | V_enum _), _ -> error "comparing values of different sorts"
