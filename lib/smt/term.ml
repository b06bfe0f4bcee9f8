type sort =
  | Bool
  | Bitvec of int
  | Enum of string

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
  | Enum_var of string * string
  | Pred of string * t list

(* --- smart constructors --------------------------------------------------- *)

let tt = True
let ff = False
let bool_var name = Bool_var name

let not_ = function
  | True -> False
  | False -> True
  | Not t -> t
  | t -> Not t

let and_ ts =
  let ts = List.filter (fun t -> t <> True) ts in
  if List.exists (fun t -> t = False) ts then False
  else match ts with [] -> True | [ t ] -> t | _ -> And ts

let or_ ts =
  let ts = List.filter (fun t -> t <> False) ts in
  if List.exists (fun t -> t = True) ts then True
  else match ts with [] -> False | [ t ] -> t | _ -> Or ts

let implies a b =
  match (a, b) with
  | True, b -> b
  | False, _ -> True
  | _, True -> True
  | a, False -> not_ a
  | _ -> Implies (a, b)

let iff a b =
  match (a, b) with
  | True, b | b, True -> b
  | False, b | b, False -> not_ b
  | _ -> Iff (a, b)

let eq a b = if a = b then True else Eq (a, b)
let distinct = function [] | [ _ ] -> True | ts -> Distinct ts

let mask width v =
  if width = 64 then v else Int64.logand v (Int64.sub (Int64.shift_left 1L width) 1L)

let bv ~width value =
  if width < 1 || width > 64 then invalid_arg "Term.bv: width must be in 1..64";
  Bv_const { width; value = mask width value }

let bv_of_int ~width v = bv ~width (Int64.of_int v)
let bv_var name ~width =
  if width < 1 || width > 64 then invalid_arg "Term.bv_var: width must be in 1..64";
  Bv_var (name, width)

let mul a b = Bv_mul (a, b)
let ult a b = Bv_cmp (Ult, a, b)
let ule a b = Bv_cmp (Ule, a, b)
let uge a b = Bv_cmp (Ule, b, a)

let zero_extend ~by arg =
  if by < 0 then invalid_arg "Term.zero_extend";
  if by = 0 then arg else Bv_zero_extend { by; arg }

let enum ~sort value = Enum_const { sort; value }
let enum_var name ~sort = Enum_var (name, sort)
let pred name args = Pred (name, args)

(* --- sort checking -------------------------------------------------------- *)

exception Sort_error of string

let equal_sort a b =
  match (a, b) with
  | Bool, Bool -> true
  | Bitvec w, Bitvec w' -> w = w'
  | Enum s, Enum s' -> String.equal s s'
  | (Bool | Bitvec _ | Enum _), _ -> false

let pp_sort ppf = function
  | Bool -> Fmt.string ppf "Bool"
  | Bitvec w -> Fmt.pf ppf "(_ BitVec %d)" w
  | Enum s -> Fmt.pf ppf "(Enum %s)" s

let sort_error fmt = Fmt.kstr (fun msg -> raise (Sort_error msg)) fmt

let sort_of ~enum_sorts term =
  let rec go term =
    match term with
    | True | False | Bool_var _ -> Bool
    | Not t -> expect Bool t; Bool
    | And ts | Or ts ->
      List.iter (expect Bool) ts;
      Bool
    | Implies (a, b) | Iff (a, b) ->
      expect Bool a;
      expect Bool b;
      Bool
    | Eq (a, b) ->
      let sa = go a and sb = go b in
      if not (equal_sort sa sb) then
        sort_error "= applied to sorts %a and %a" pp_sort sa pp_sort sb;
      Bool
    | Distinct ts ->
      (match ts with
       | [] -> Bool
       | t :: rest ->
         let s = go t in
         List.iter (expect s) rest;
         Bool)
    | Bv_const { width; _ } -> Bitvec width
    | Bv_var (_, width) -> Bitvec width
    | Bv_mul (a, b) ->
      (match (go a, go b) with
       | Bitvec w, Bitvec w' when w = w' -> Bitvec w
       | sa, sb -> sort_error "bit-vector op applied to %a, %a" pp_sort sa pp_sort sb)
    | Bv_cmp (_, a, b) ->
      (match (go a, go b) with
       | Bitvec w, Bitvec w' when w = w' -> Bool
       | sa, sb -> sort_error "bit-vector comparison of %a, %a" pp_sort sa pp_sort sb)
    | Bv_zero_extend { by; arg } ->
      (match go arg with
       | Bitvec w when w + by <= 64 -> Bitvec (w + by)
       | Bitvec w -> sort_error "extend width %d exceeds 64" (w + by)
       | s -> sort_error "extend applied to %a" pp_sort s)
    | Enum_const { sort; value } ->
      (match enum_sorts sort with
       | None -> sort_error "unknown enum sort %s" sort
       | Some universe ->
         if not (Array.mem value universe) then
           sort_error "%S is not a member of enum sort %s" value sort;
         Enum sort)
    | Enum_var (_, sort) ->
      (match enum_sorts sort with
       | None -> sort_error "unknown enum sort %s" sort
       | Some _ -> Enum sort)
    | Pred (name, args) ->
      List.iter
        (fun a ->
          match go a with
          | Enum _ -> ()
          | s -> sort_error "predicate %s applied to non-enum sort %a" name pp_sort s)
        args;
      Bool
  and expect s t =
    let s' = go t in
    if not (equal_sort s s') then
      sort_error "expected sort %a, found %a" pp_sort s pp_sort s'
  in
  go term

(* --- printing ------------------------------------------------------------- *)

let bv_cmp_name = function Ult -> "bvult" | Ule -> "bvule"

let rec pp ppf = function
  | True -> Fmt.string ppf "true"
  | False -> Fmt.string ppf "false"
  | Bool_var v -> Fmt.string ppf v
  | Not t -> Fmt.pf ppf "(not %a)" pp t
  | And ts -> Fmt.pf ppf "(and %a)" Fmt.(list ~sep:sp pp) ts
  | Or ts -> Fmt.pf ppf "(or %a)" Fmt.(list ~sep:sp pp) ts
  | Implies (a, b) -> Fmt.pf ppf "(=> %a %a)" pp a pp b
  | Iff (a, b) -> Fmt.pf ppf "(= %a %a)" pp a pp b
  | Eq (a, b) -> Fmt.pf ppf "(= %a %a)" pp a pp b
  | Distinct ts -> Fmt.pf ppf "(distinct %a)" Fmt.(list ~sep:sp pp) ts
  | Bv_const { width; value } -> Fmt.pf ppf "(_ bv%Lu %d)" value width
  | Bv_var (v, _) -> Fmt.string ppf v
  | Bv_mul (a, b) -> Fmt.pf ppf "(bvmul %a %a)" pp a pp b
  | Bv_cmp (op, a, b) -> Fmt.pf ppf "(%s %a %a)" (bv_cmp_name op) pp a pp b
  | Bv_zero_extend { by; arg } -> Fmt.pf ppf "((_ zero_extend %d) %a)" by pp arg
  | Enum_const { value; _ } -> Fmt.pf ppf "%S" value
  | Enum_var (v, _) -> Fmt.string ppf v
  | Pred (name, args) -> Fmt.pf ppf "(%s %a)" name Fmt.(list ~sep:sp pp) args

let to_string t = Fmt.str "%a" pp t
