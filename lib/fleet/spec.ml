(* The shippable description of one pipeline run: every raw input byte
   and verdict-affecting flag, as one JSON value.

   Closures cannot cross a socket, so the fleet protocol ships *inputs*
   and has each worker replan: [build] parses the shipped texts exactly
   as the CLI parses the files they came from (same file-name strings,
   so diagnostic locations match byte-for-byte) and calls
   [Pipeline.plan_tasks], which is deterministic in these inputs plus
   [skip].  Dispatcher and workers therefore agree on the task array —
   index [i] means the same closure everywhere — and [hash] (a digest of
   the canonical JSON rendering) is the protocol's proof of that
   agreement: it rides on every task message and result, and a mismatch
   means the peer planned a different run. *)

module Json = Llhsc.Json

type input = { file : string; text : string }

type t = {
  core : input;
  deltas : input;
  model : string; (* feature model source text *)
  schemas : string list; (* schema texts, pre-sorted by file name *)
  files : (string * string) list; (* /include/ name -> contents *)
  vms : string list list;
  exclusive : string list;
  certify : bool;
  retry : int option;
  max_conflicts : int option;
  solver_timeout : float option;
  unsound : string option;
  skip : string list; (* products the dispatcher replayed from its journal *)
}

(* --- JSON ------------------------------------------------------------------- *)

let strs l = Json.List (List.map (fun s -> Json.Str s) l)
let opt_int = function None -> Json.Null | Some n -> Json.Int n
let opt_str = function None -> Json.Null | Some s -> Json.Str s

let input_to_json i =
  Json.Obj [ ("file", Json.Str i.file); ("text", Json.Str i.text) ]

(* Field order is fixed: [hash] digests this rendering, so it must be a
   canonical function of the record. *)
let to_json s =
  Json.Obj
    [
      ("core", input_to_json s.core);
      ("deltas", input_to_json s.deltas);
      ("model", Json.Str s.model);
      ("schemas", strs s.schemas);
      ("files", Json.Obj (List.map (fun (n, c) -> (n, Json.Str c)) s.files));
      ("vms", Json.List (List.map strs s.vms));
      ("exclusive", strs s.exclusive);
      ("certify", Json.Bool s.certify);
      ("retry", opt_int s.retry);
      ("max_conflicts", opt_int s.max_conflicts);
      ( "solver_timeout",
        (* Json has no floats; %h round-trips the exact bits. *)
        match s.solver_timeout with
        | None -> Json.Null
        | Some f -> Json.Str (Printf.sprintf "%h" f) );
      ("unsound", opt_str s.unsound);
      ("skip", strs s.skip);
    ]

let ( let* ) = Option.bind

let input_of_json j =
  let* file = Option.bind (Json.member "file" j) Json.to_str in
  let* text = Option.bind (Json.member "text" j) Json.to_str in
  Some { file; text }

let str_list_of name j = Option.bind (Json.member name j) Json.to_str_list

let opt_int_of name j =
  match Json.member name j with
  | None | Some Json.Null -> Some None
  | Some v -> Option.map Option.some (Json.to_int v)

let opt_str_of name j =
  match Json.member name j with
  | None | Some Json.Null -> Some None
  | Some v -> Option.map Option.some (Json.to_str v)

let of_json j =
  let* core = Option.bind (Json.member "core" j) input_of_json in
  let* deltas = Option.bind (Json.member "deltas" j) input_of_json in
  let* model = Option.bind (Json.member "model" j) Json.to_str in
  let* schemas = str_list_of "schemas" j in
  let* files =
    match Json.member "files" j with
    | Some (Json.Obj kvs) ->
      let rec go acc = function
        | [] -> Some (List.rev acc)
        | (n, Json.Str c) :: rest -> go ((n, c) :: acc) rest
        | _ -> None
      in
      go [] kvs
    | _ -> None
  in
  let* vms =
    let* l = Option.bind (Json.member "vms" j) Json.to_list in
    let rec go acc = function
      | [] -> Some (List.rev acc)
      | v :: rest -> (
        match Json.to_str_list v with
        | Some fs -> go (fs :: acc) rest
        | None -> None)
    in
    go [] l
  in
  let* exclusive = str_list_of "exclusive" j in
  let* certify = Option.bind (Json.member "certify" j) Json.to_bool in
  let* retry = opt_int_of "retry" j in
  let* max_conflicts = opt_int_of "max_conflicts" j in
  let* solver_timeout =
    match Json.member "solver_timeout" j with
    | None | Some Json.Null -> Some None
    | Some (Json.Str s) -> Option.map Option.some (float_of_string_opt s)
    | Some _ -> None
  in
  let* unsound = opt_str_of "unsound" j in
  let* skip = str_list_of "skip" j in
  Some
    { core; deltas; model; schemas; files; vms; exclusive; certify; retry;
      max_conflicts; solver_timeout; unsound; skip }

let hash s = Digest.to_hex (Digest.string (Json.to_string (to_json s)))

(* The wire form is the canonical JSON itself. *)
let to_wire = to_json
let of_wire = of_json

(* --- replanning -------------------------------------------------------------- *)

let build s =
  try
    (* Includes resolve by the literal /include/ string against the
       shipped file set — the same key the dispatcher used when it
       shipped them, so resolution cannot silently diverge. *)
    let loader file = List.assoc_opt file s.files in
    let core =
      match
        Devicetree.Tree.of_source_diags ~loader ~file:s.core.file s.core.text
      with
      | Ok tree -> tree
      | Error _ -> failwith (Printf.sprintf "unparsable core %s" s.core.file)
    in
    let deltas = Delta.Parse.parse ~file:s.deltas.file s.deltas.text in
    let model = Featuremodel.Parse.parse s.model in
    let schemas = List.map Schema.Binding.of_string s.schemas in
    let schemas_for _tree = schemas in
    Ok
      (Llhsc.Pipeline.plan_tasks ~exclusive:s.exclusive
         ?budget:
           (Llhsc.Pipeline.budget_of ~max_conflicts:s.max_conflicts
              ~timeout:s.solver_timeout)
         ~certify:s.certify ?retry:(Llhsc.Pipeline.retry_of s.retry)
         ?unsound:(Option.map Sat.Solver.unsound_of_string s.unsound)
         ~skip:s.skip ~model ~core ~deltas ~schemas_for ~vm_requests:s.vms ())
  with e -> (
    match Diag.of_exn e with
    | Some d -> Error (Fmt.str "%a" Diag.pp d)
    | None -> raise e)
