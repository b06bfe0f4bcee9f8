(* The one description of a pipeline run: every raw input byte and
   verdict-affecting flag, as one JSON value.

   Three front doors build it: [load] from the files the parser actually
   read (`pipeline`, `dispatch`), [of_project] from a project file
   (`build`) and [of_request] from a served /v1/pipeline body.  [parse]
   turns it into [Pipeline] arguments: the CLI's spec runner applies them
   to [Pipeline.run], and a fleet worker's [build] applies the same
   arguments, rebuilt from the shipped texts (same file-name strings, so
   diagnostic locations match byte-for-byte), to [Pipeline.plan_tasks].
   Planning is deterministic in these inputs plus [skip], so dispatcher
   and workers agree on the task array — index [i] means the same
   closure everywhere — and [hash] (a digest of the canonical JSON
   rendering) is the proof of that agreement: it rides on every task
   message and result, and a mismatch means the peer planned a different
   run.  The product journal keys on the same digest. *)

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

type pool = {
  jobs : int;
  task_deadline : float option;
  max_respawns : int;
  mem_limit : int option;
  cpu_limit : int option;
}

let default_pool =
  { jobs = 1; task_deadline = None; max_respawns = 8; mem_limit = None; cpu_limit = None }

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

let parse_tree ~loader ~file text =
  match Devicetree.Tree.of_source_diags ~loader ~file text with
  | Ok tree -> tree
  | Error errs -> raise (Diag.Errors (List.map Diag.parse_error errs))

(* The texts parse now, in the CLI's order; the flags decode only once
   the result meets its [Pipeline] function, so whatever the caller does
   in between (the CLI opens its journal) still comes first.  [deltas]
   are the delta files, each under its own name. *)
let parse ~loader ~deltas s : 'a pipeline -> 'a =
  let core = parse_tree ~loader ~file:s.core.file s.core.text in
  let deltas = Delta.Parse.parse_files (List.map (fun d -> (d.file, d.text)) deltas) in
  let model = Featuremodel.Parse.parse s.model in
  let schemas = List.map Schema.Binding.of_string s.schemas in
  fun f ->
    f ~exclusive:s.exclusive
      ?budget:
        (Pipeline.budget_of ~max_conflicts:s.max_conflicts ~timeout:s.solver_timeout)
      ~certify:s.certify ?retry:(Pipeline.retry_of s.retry)
      ?unsound:(Option.map Sat.Solver.unsound_of_string s.unsound)
      ~model ~core ~deltas ~schemas_for:(fun _ -> schemas) ~vm_requests:s.vms ()

(* Includes resolve by their literal name against the shipped file set:
   the key [load] recorded them under, so resolution cannot diverge.  A
   name's first entry wins. *)
let pipeline s =
  let files = Hashtbl.of_seq (List.to_seq (List.rev s.files)) in
  parse ~loader:(Hashtbl.find_opt files) ~deltas:[ s.deltas ] s

(* [deltas] pairs each delta file's name in diagnostics with its path.
   The record holds one delta input, so several files are recorded in
   order, joined by newlines, under the first one's name: the digest
   covers every byte, and the returned arguments parse each file under
   its own name. *)
let of_files ~core ~deltas ~model ~schemas ~vms ~exclusive ~certify ~retry
    ~max_conflicts ~solver_timeout ~unsound =
  let read = Llhsc.Util.read_file in
  let core = { file = core; text = read core } in
  let delta_inputs = List.map (fun (file, path) -> { file; text = read path }) deltas in
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
  let deltas =
    { file = (List.hd delta_inputs).file;
      text = String.concat "\n" (List.map (fun d -> d.text) delta_inputs) }
  in
  let spec =
    { core; deltas; model; schemas; files = []; vms; exclusive; certify; retry;
      max_conflicts; solver_timeout; unsound; skip = [] }
  in
  let pipeline = parse ~loader ~deltas:delta_inputs spec in
  ({ spec with files = List.rev !files }, pipeline)

let load ~core ~deltas = of_files ~core ~deltas:[ (deltas, deltas) ]

let schema_files = function
  | None -> []
  | Some dir ->
    Sys.readdir dir |> Array.to_list |> List.sort String.compare
    |> List.filter (fun f -> Filename.check_suffix f ".yaml" || Filename.check_suffix f ".yml")
    |> List.map (Filename.concat dir)

(* --- the project file ---------------------------------------------------------- *)

(* Project file (YAML):
     core: board.dts
     deltas: [board.deltas, extra.deltas]
     model: board.fm
     schemas: schemas          # directory
     exclusive: [cpus]
     vms:
       - name: vm1
         features: [memory, cpu@0]
     output: out               # optional artifact directory
     jobs: 4                   # optional check-phase worker processes (0 = auto-detect cores)
   Paths are relative to the project file; delta files keep the names
   written there. *)
let of_project path =
  let module Y = Schema.Yaml_lite in
  let dir = Filename.dirname path in
  let resolve p = if Filename.is_relative p then Filename.concat dir p else p in
  let y = Y.parse (Llhsc.Util.read_file path) in
  let str name = Option.bind (Y.find name y) Y.as_string in
  let field name =
    match str name with
    | Some s -> resolve s
    | None -> failwith (Printf.sprintf "project file: missing %S" name)
  in
  let str_list name =
    match Y.find name y with
    | Some (Y.List items) -> List.filter_map Y.as_string items
    | Some (Y.Str s) -> [ s ]
    | _ -> []
  in
  let core = field "core" in
  let deltas =
    match str_list "deltas" with
    | [] -> failwith "project file: missing deltas"
    | fs -> List.map (fun f -> (f, resolve f)) fs
  in
  let model = field "model" in
  let vms =
    match Y.find "vms" y with
    | Some (Y.List items) ->
      List.map
        (fun item ->
          match Y.find "features" item with
          | Some (Y.List fs) -> List.filter_map Y.as_string fs
          | _ -> failwith "project file: vm entry missing features")
        items
    | _ -> failwith "project file: missing vms"
  in
  let jobs =
    (* 0 = auto-detect online cores, mirroring --jobs 0. *)
    match Option.bind (Y.find "jobs" y) Y.as_int with
    | Some n when Int64.compare n 0L >= 0 -> Int64.to_int n
    | Some n -> failwith (Printf.sprintf "project file: jobs must be >= 0, got %Ld" n)
    | None -> 1
  in
  let spec, pipeline =
    of_files ~core ~deltas ~model
      ~schemas:(schema_files (Option.map resolve (str "schemas")))
      ~vms ~exclusive:(str_list "exclusive") ~certify:false ~retry:None
      ~max_conflicts:None ~solver_timeout:None ~unsound:None
  in
  (spec, { default_pool with jobs }, Option.map resolve (str "output"), pipeline)

(* --- the served request ---------------------------------------------------------- *)

let safe_name name =
  name <> ""
  && String.length name <= 64
  && name.[0] <> '.'
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' -> true | _ -> false)
       name

(* The names a job's report shows are the ones a served job always saw:
   core.dts, board.deltas, the [files] entries.  Schemas are named only to
   be ordered. *)
let of_request ~max_jobs body =
  let ( let* ) = Result.bind in
  let* body = Result.map_error (fun msg -> "request body: " ^ msg) (Json.parse body) in
  let str name = Option.bind (Json.member name body) Json.to_str in
  let positive name =
    match Option.bind (Json.member name body) Json.to_int with
    | Some n when n > 0 -> Some n
    | _ -> None
  in
  let* core, deltas, model =
    match (str "core", str "deltas", str "model") with
    | Some c, Some d, Some m -> Ok (c, d, m)
    | _ -> Error "missing \"core\"/\"deltas\"/\"model\" inputs"
  in
  let* vms =
    let items = Option.value ~default:[] (Option.bind (Json.member "vms" body) Json.to_list) in
    let vms = List.filter_map Json.to_str_list items in
    if vms <> [] && List.length vms = List.length items then Ok vms
    else Error "missing or malformed \"vms\" (want a non-empty list of feature lists)"
  in
  (* An object of name -> contents, every name [ok] and distinct.  The
     daemon decodes in its one loop, so the check is linear in the
     entries, and seeded so that no chosen names collide. *)
  let named what ok =
    match Json.member (what ^ "s") body with
    | None -> Ok []
    | Some (Json.Obj fields) ->
      let seen = Hashtbl.create ~random:true 16 in
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | (name, Json.Str text) :: rest when ok name && not (Hashtbl.mem seen name) ->
          Hashtbl.add seen name ();
          go ((name, text) :: acc) rest
        | (name, _) :: _ -> Error (Printf.sprintf "bad %s entry %S" what name)
      in
      go [] fields
    | Some _ -> Error (Printf.sprintf "malformed \"%ss\" (want an object of file -> contents)" what)
  in
  let* schemas =
    named "schema" (fun n ->
        safe_name n && (Filename.check_suffix n ".yaml" || Filename.check_suffix n ".yml"))
  in
  let* files =
    named "file" (fun n ->
        safe_name n && not (List.mem n [ "core.dts"; "board.deltas"; "board.fm"; "schemas" ]))
  in
  let jobs =
    match positive "jobs" with Some n when n > 1 -> min n (max 1 max_jobs) | _ -> 1
  in
  Ok
    ( { core = { file = "core.dts"; text = core };
        deltas = { file = "board.deltas"; text = deltas };
        model;
        schemas = List.map snd (List.sort (fun (a, _) (b, _) -> String.compare a b) schemas);
        files;
        vms;
        exclusive =
          Option.value ~default:[] (Option.bind (Json.member "exclusive" body) Json.to_str_list);
        certify =
          Option.value ~default:false (Option.bind (Json.member "certify" body) Json.to_bool);
        retry = positive "retry";
        max_conflicts = positive "max_conflicts";
        solver_timeout = Option.map float_of_int (positive "solver_timeout");
        unsound = None;
        skip = [] },
      { default_pool with jobs; mem_limit = positive "mem_limit"; cpu_limit = positive "cpu_limit" } )

(* --- replanning -------------------------------------------------------------- *)

let build s =
  match pipeline s (Pipeline.plan_tasks ~skip:s.skip) with
  | tasks -> Ok tasks
  | exception e -> (
    match Diag.of_exn e with
    | Some d -> Error (Fmt.str "%a" Diag.pp d)
    | None -> raise e)
