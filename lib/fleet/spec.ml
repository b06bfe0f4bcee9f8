(* The one description of a pipeline run: every raw input byte and
   verdict-affecting flag, as one JSON value.

   [load] builds it from the files the parser actually read, and
   [parse] turns it back into [Pipeline] arguments: the CLI runs
   [Pipeline.run] on those, and a fleet worker's [build] runs
   [Pipeline.plan_tasks] on the same arguments rebuilt from the shipped
   texts (same file-name strings, so diagnostic locations match
   byte-for-byte).  Planning is deterministic in these inputs plus
   [skip], so dispatcher and workers agree on the task array — index [i]
   means the same closure everywhere — and [hash] (a digest of the
   canonical JSON rendering) is the proof of that agreement: it rides on
   every task message and result, and a mismatch means the peer planned
   a different run.  The product journal keys on the same digest. *)

module Json = Llhsc.Json
module Pipeline = Llhsc.Pipeline

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

(* The wire form is the canonical JSON itself.  Field order is fixed:
   [hash] digests this rendering, so it must be a canonical function of
   the record. *)
let to_wire s =
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

let of_wire j =
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

let hash s = Digest.to_hex (Digest.string (Json.to_string (to_wire s)))

(* --- Pipeline arguments ------------------------------------------------------ *)

type 'a pipeline =
  ?exclusive:string list ->
  ?budget:Sat.Solver.budget ->
  ?certify:bool ->
  ?retry:Smt.Escalation.t ->
  ?unsound:Sat.Solver.unsound_mutation ->
  model:Featuremodel.Model.t ->
  core:Devicetree.Tree.t ->
  deltas:Delta.Lang.t list ->
  schemas_for:(Devicetree.Tree.t -> Schema.Binding.t list) ->
  vm_requests:string list list ->
  unit ->
  'a

(* The texts parse now, in the CLI's order; the flags decode only once
   the result meets its [Pipeline] function, so whatever the caller does
   in between (the CLI opens its journal) still comes first. *)
let parse ~loader s : 'a pipeline -> 'a =
  let core =
    match Devicetree.Tree.of_source_diags ~loader ~file:s.core.file s.core.text with
    | Ok tree -> tree
    | Error errs -> raise (Diag.Errors (List.map Diag.parse_error errs))
  in
  let deltas = Delta.Parse.parse ~file:s.deltas.file s.deltas.text in
  let model = Featuremodel.Parse.parse s.model in
  let schemas = List.map Schema.Binding.of_string s.schemas in
  fun f ->
    f ~exclusive:s.exclusive
      ?budget:
        (Pipeline.budget_of ~max_conflicts:s.max_conflicts ~timeout:s.solver_timeout)
      ~certify:s.certify ?retry:(Pipeline.retry_of s.retry)
      ?unsound:(Option.map Sat.Solver.unsound_of_string s.unsound)
      ~model ~core ~deltas ~schemas_for:(fun _ -> schemas) ~vm_requests:s.vms ()

let load ~core ~deltas ~model ~schemas ~vms ~exclusive ~certify ~retry
    ~max_conflicts ~solver_timeout ~unsound =
  let read = Llhsc.Util.read_file in
  let core = { file = core; text = read core } in
  let deltas = { file = deltas; text = read deltas } in
  let model = read model in
  let schemas = List.map read schemas in
  (* Each /include/d file is recorded under its literal name, the key a
     worker looks it up by.  A name included twice parses as the bytes
     recorded. *)
  let files = ref [] in
  let loader name =
    match List.assoc_opt name !files with
    | Some _ as text -> text
    | None ->
      let text = Llhsc.Util.include_loader core.file name in
      Option.iter (fun text -> files := (name, text) :: !files) text;
      text
  in
  let spec =
    { core; deltas; model; schemas; files = []; vms; exclusive; certify; retry;
      max_conflicts; solver_timeout; unsound; skip = [] }
  in
  let pipeline = parse ~loader spec in
  ({ spec with files = List.rev !files }, pipeline)

(* --- replanning -------------------------------------------------------------- *)

(* Includes resolve by their literal name against the shipped file set:
   the key [load] recorded them under, so resolution cannot diverge. *)
let build s =
  match
    parse ~loader:(fun name -> List.assoc_opt name s.files) s
      (Pipeline.plan_tasks ~skip:s.skip)
  with
  | tasks -> Ok tasks
  | exception e -> (
    match Diag.of_exn e with
    | Some d -> Error (Fmt.str "%a" Diag.pp d)
    | None -> raise e)
