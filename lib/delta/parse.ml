(* Parser for delta files.  Reuses the DeviceTree lexer and the DTS node
   parser for operation bodies, so everything inside braces is ordinary DTS
   syntax.

     file  ::= delta*
     delta ::= "delta" name ["after" name ("," name)*] ["when" cond] "{" op* "}"
     op    ::= "adds" "binding" target body ";"?
             | "modifies" target body ";"?
             | "removes" target ";"
     cond  ::= feature names with "!", "&&", "||", parentheses
     target ::= "/" | node-name (resolved in the tree at application time)

   The [when] condition grammar maps onto [Featuremodel.Bexpr]. *)

module L = Devicetree.Lexer
module P = Devicetree.Parser

exception Error of string * Devicetree.Loc.t

let error loc fmt = Fmt.kstr (fun msg -> raise (Error (msg, loc))) fmt

type state = P.state (* reuse the devicetree parser's token-stream state *)

let peek (st : state) = fst st.P.toks.(st.P.pos)
let peek_loc (st : state) = snd st.P.toks.(st.P.pos)
let advance (st : state) = if st.P.pos < Array.length st.P.toks - 1 then st.P.pos <- st.P.pos + 1

let expect st tok what =
  if peek st = tok then advance st
  else error (peek_loc st) "expected %s, found %a" what L.pp_token (peek st)

let ident st what =
  match peek st with
  | L.IDENT name ->
    advance st;
    name
  | tok -> error (peek_loc st) "expected %s, found %a" what L.pp_token tok

(* --- when-conditions ------------------------------------------------------- *)

let rec parse_or st =
  let a = ref (parse_and st) in
  while peek st = L.OP 'O' do
    advance st;
    a := Featuremodel.Bexpr.Or (!a, parse_and st)
  done;
  !a

and parse_and st =
  let a = ref (parse_not st) in
  while peek st = L.OP 'A' do
    advance st;
    a := Featuremodel.Bexpr.And (!a, parse_not st)
  done;
  !a

and parse_not st =
  match peek st with
  | L.OP '!' ->
    advance st;
    Featuremodel.Bexpr.Not (parse_not st)
  | L.LPAREN ->
    advance st;
    let e = parse_or st in
    expect st L.RPAREN "')'";
    e
  | L.IDENT name ->
    advance st;
    Featuremodel.Bexpr.Var name
  | tok -> error (peek_loc st) "expected condition, found %a" L.pp_token tok

(* --- operations ------------------------------------------------------------- *)

(* A target is "/", a bare node name, or an absolute path.  The DTS lexer
   splits "/cpus/cpu@0" into DIRECTIVE "cpus" (the /word/ pattern) followed
   by name tokens; reassemble the path here. *)
let parse_target st =
  let buf = ref "" in
  let rec segments () =
    match peek st with
    | L.DIRECTIVE d ->
      advance st;
      buf := !buf ^ "/" ^ d;
      segments ()
    | L.SLASH ->
      advance st;
      (match peek st with
       | L.IDENT s ->
         advance st;
         buf := !buf ^ "/" ^ s;
         segments ()
       | _ -> ())
    | L.IDENT s when !buf <> "" ->
      advance st;
      buf := !buf ^ "/" ^ s;
      segments ()
    | _ -> ()
  in
  match peek st with
  | L.SLASH | L.DIRECTIVE _ ->
    segments ();
    if !buf = "" then "/" else !buf
  | L.IDENT name ->
    advance st;
    name
  | tok -> error (peek_loc st) "expected target node, found %a" L.pp_token tok

let parse_body st ~target =
  let loc = peek_loc st in
  P.parse_node_body st ~labels:[] ~name:target ~loc

let parse_operation st =
  match peek st with
  | L.IDENT "adds" ->
    advance st;
    (match peek st with
     | L.IDENT "binding" -> advance st
     | _ -> ());
    let target = parse_target st in
    let body = parse_body st ~target in
    if peek st = L.SEMI then advance st;
    Lang.Adds { target; body }
  | L.IDENT "modifies" ->
    advance st;
    let target = parse_target st in
    let body = parse_body st ~target in
    if peek st = L.SEMI then advance st;
    Lang.Modifies { target; body }
  | L.IDENT "removes" ->
    advance st;
    let target = parse_target st in
    expect st L.SEMI "';'";
    Lang.Removes { target }
  | tok -> error (peek_loc st) "expected 'adds', 'modifies' or 'removes', found %a" L.pp_token tok

let parse_delta st =
  let loc = peek_loc st in
  expect st (L.IDENT "delta") "'delta'";
  let name = ident st "delta name" in
  let after = ref [] in
  if peek st = L.IDENT "after" then begin
    advance st;
    after := [ ident st "delta name" ];
    while peek st = L.COMMA do
      advance st;
      after := ident st "delta name" :: !after
    done
  end;
  let condition =
    if peek st = L.IDENT "when" then begin
      advance st;
      Some (parse_or st)
    end
    else None
  in
  expect st L.LBRACE "'{'";
  let ops = ref [] in
  while peek st <> L.RBRACE do
    ops := parse_operation st :: !ops
  done;
  expect st L.RBRACE "'}'";
  if peek st = L.SEMI then advance st;
  { Lang.name; after = List.rev !after; condition; ops = List.rev !ops; loc }

(* Referential validation of a (possibly multi-file) delta set: names must
   be unique and every [after] must reference a declared delta. *)
let validate deltas =
  let names = List.map (fun d -> d.Lang.name) deltas in
  List.iter
    (fun d ->
      if List.length (List.filter (String.equal d.Lang.name) names) > 1 then
        error d.Lang.loc "duplicate delta name %s" d.Lang.name;
      List.iter
        (fun a ->
          if not (List.mem a names) then
            error d.Lang.loc "delta %s is declared after unknown delta %s" d.Lang.name a)
        d.Lang.after)
    deltas

let parse ?(validate_refs = true) ~file src =
  let toks = L.tokenize ~file src in
  let st = { P.toks; pos = 0; errors = []; recover = false } in
  let deltas = ref [] in
  while peek st <> L.EOF do
    deltas := parse_delta st :: !deltas
  done;
  let deltas = List.rev !deltas in
  if validate_refs then validate deltas;
  deltas

let parse_files files =
  let deltas =
    List.concat_map (fun (file, src) -> parse ~validate_refs:false ~file src) files
  in
  validate deltas;
  deltas
