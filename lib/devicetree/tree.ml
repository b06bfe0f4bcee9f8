type prop = {
  p_name : string;
  p_value : Ast.piece list;
  p_loc : Loc.t;
}

type t = {
  name : string;
  labels : string list;
  props : prop list;
  children : t list;
  loc : Loc.t;
}

exception Error of string * Loc.t

let error loc fmt = Fmt.kstr (fun msg -> raise (Error (msg, loc))) fmt

let empty = { name = "/"; labels = []; props = []; children = []; loc = Loc.dummy }

(* --- paths -------------------------------------------------------------------- *)

let split_path path =
  if path = "/" || path = "" then []
  else
    String.split_on_char '/' path |> List.filter (fun s -> s <> "")

let join_path parent child = if parent = "/" then "/" ^ child else parent ^ "/" ^ child

(* --- queries -------------------------------------------------------------------- *)

let child_opt t name = List.find_opt (fun c -> String.equal c.name name) t.children

let rec find_segments t = function
  | [] -> Some t
  | seg :: rest ->
    (match child_opt t seg with None -> None | Some c -> find_segments c rest)

let find t path = find_segments t (split_path path)

let find_exn t path =
  match find t path with
  | Some n -> n
  | None -> error Loc.dummy "node %s not found" path

let get_prop t name = List.find_opt (fun p -> String.equal p.p_name name) t.props
let has_prop t name = get_prop t name <> None

let fold f t acc =
  let rec go path t acc =
    let acc = f path t acc in
    List.fold_left (fun acc c -> go (join_path path c.name) c acc) acc t.children
  in
  go "/" t acc

let paths t = List.rev (fold (fun path _ acc -> path :: acc) t [])

let find_label t label =
  fold
    (fun path node acc ->
      match acc with
      | Some _ -> acc
      | None -> if List.mem label node.labels then Some (path, node) else None)
    t None

(* --- property decoding ------------------------------------------------------------ *)

let prop_cells p =
  List.concat_map
    (function
      | Ast.Cells { bits; cells } ->
        List.map
          (function
            | Ast.Cell_int v -> (bits, v)
            | Ast.Cell_ref label ->
              error p.p_loc "unresolved reference &%s in property %s" label p.p_name)
          cells
      | Ast.Bytes raw when String.length raw > 0 && String.length raw mod 4 = 0 ->
        (* Untyped values decoded from a DTB: reinterpret as big-endian
           32-bit cells, the representation every cell array flattens to. *)
        List.init
          (String.length raw / 4)
          (fun i ->
            let b k = Int64.of_int (Char.code raw.[(4 * i) + k]) in
            ( 32,
              Int64.logor
                (Int64.shift_left (b 0) 24)
                (Int64.logor
                   (Int64.shift_left (b 1) 16)
                   (Int64.logor (Int64.shift_left (b 2) 8) (b 3))) ))
      | Ast.Str _ | Ast.Bytes _ | Ast.Ref_path _ -> [])
    p.p_value

let prop_u32s p =
  List.map
    (fun (bits, v) ->
      if bits <> 32 then error p.p_loc "property %s uses /bits/ %d cells" p.p_name bits;
      Int64.logand v 0xFFFFFFFFL)
    (prop_cells p)

let prop_string p =
  List.find_map (function Ast.Str s -> Some s | _ -> None) p.p_value

let prop_strings p =
  List.filter_map (function Ast.Str s -> Some s | _ -> None) p.p_value

(* --- functional updates ------------------------------------------------------------ *)

let rec update_at t segments (f : t -> t) =
  match segments with
  | [] -> f t
  | seg :: rest ->
    let found = ref false in
    let children =
      List.map
        (fun c ->
          if String.equal c.name seg then begin
            found := true;
            update_at c rest f
          end
          else c)
        t.children
    in
    if not !found then error Loc.dummy "node %s not found" seg;
    { t with children }

let set_prop t ~path name value =
  update_at t (split_path path) (fun node ->
      let prop = { p_name = name; p_value = value; p_loc = Loc.dummy } in
      let replaced = ref false in
      let props =
        List.map
          (fun p ->
            if String.equal p.p_name name then begin
              replaced := true;
              prop
            end
            else p)
          node.props
      in
      { node with props = (if !replaced then props else props @ [ prop ]) })

let remove_prop t ~path name =
  update_at t (split_path path) (fun node ->
      { node with props = List.filter (fun p -> not (String.equal p.p_name name)) node.props })

let add_node t ~parent name =
  update_at t (split_path parent) (fun node ->
      match child_opt node name with
      | Some _ -> node
      | None ->
        let child = { empty with name; loc = Loc.dummy } in
        { node with children = node.children @ [ child ] })

let remove_node t ~path =
  match List.rev (split_path path) with
  | [] -> error Loc.dummy "cannot remove the root node"
  | last :: rev_parent ->
    let parent_segs = List.rev rev_parent in
    (match find_segments t parent_segs with
     | None -> error Loc.dummy "node %s not found" path
     | Some parent_node ->
       if child_opt parent_node last = None then error Loc.dummy "node %s not found" path);
    update_at t parent_segs (fun node ->
        { node with children = List.filter (fun c -> not (String.equal c.name last)) node.children })

(* --- merging (dtc overlay semantics) ------------------------------------------------ *)

(* Apply an AST node body on top of an existing tree node. *)
let rec apply_entries node entries =
  List.fold_left
    (fun node entry ->
      match entry with
      | Ast.Prop { prop_name; prop_value; prop_loc } ->
        let prop = { p_name = prop_name; p_value = prop_value; p_loc = prop_loc } in
        let replaced = ref false in
        let props =
          List.map
            (fun p ->
              if String.equal p.p_name prop_name then begin
                replaced := true;
                prop
              end
              else p)
            node.props
        in
        { node with props = (if !replaced then props else props @ [ prop ]) }
      | Ast.Child child_ast ->
        let merged = ref false in
        let children =
          List.map
            (fun c ->
              if String.equal c.name child_ast.Ast.node_name then begin
                merged := true;
                merge_node c child_ast
              end
              else c)
            node.children
        in
        if !merged then { node with children }
        else
          let fresh =
            {
              name = child_ast.Ast.node_name;
              labels = [];
              props = [];
              children = [];
              loc = child_ast.Ast.node_loc;
            }
          in
          { node with children = node.children @ [ merge_node fresh child_ast ] }
      | Ast.Delete_node (target, _loc) ->
        { node with children = List.filter (fun c -> not (String.equal c.name target)) node.children }
      | Ast.Delete_prop (target, _loc) ->
        { node with props = List.filter (fun p -> not (String.equal p.p_name target)) node.props })
    node entries

and merge_node node (ast : Ast.node) =
  let node =
    {
      node with
      labels = node.labels @ List.filter (fun l -> not (List.mem l node.labels)) ast.node_labels;
    }
  in
  apply_entries node ast.node_entries

let merge_at t ~path (ast : Ast.node) =
  update_at t (split_path path) (fun node -> merge_node node ast)

(* --- building from AST -------------------------------------------------------------- *)

(* dtc's bound on include nesting: anything deeper is a cycle, and a
   cycle would otherwise never end.  A file included twice side by side
   nests no deeper. *)
let max_include_depth = 200

(* The bound on the includes one tree expands in all, which dtc lacks.
   Nesting alone does not bound the work: a chain of files that each
   include the next one twice doubles it at every level. *)
let max_includes = 1000

let too_deep = "includes nested too deeply"
let too_many = Printf.sprintf "more than %d includes in one tree" max_includes

(* [includes] counts the expansions of the whole tree so far. *)
let rec process_toplevels ~depth ~includes ~loader root = function
  | [] -> root
  | item :: rest ->
    let root =
      match item with
      | Ast.Version_tag -> root
      | Ast.Memreserve _ -> root
      | Ast.Include (_, loc) when depth >= max_include_depth -> error loc "%s" too_deep
      | Ast.Include (_, loc) when !includes >= max_includes -> error loc "%s" too_many
      | Ast.Include (file, loc) -> begin
        incr includes;
        match loader file with
        | None -> error loc "cannot resolve /include/ %S" file
        | Some src ->
          let ast = Parser.parse ~file src in
          process_toplevels ~depth:(depth + 1) ~includes ~loader root ast
      end
      | Ast.Root node -> merge_node root node
      | Ast.Ref_node (label, node) -> begin
        match find_label root label with
        | None -> error node.Ast.node_loc "reference to undefined label &%s" label
        | Some (path, _) -> update_at root (split_path path) (fun n -> merge_node n node)
      end
      | Ast.Delete_node_top (label, loc) -> begin
        match find_label root label with
        | None -> error loc "reference to undefined label &%s" label
        | Some (path, _) -> remove_node root ~path
      end
    in
    process_toplevels ~depth ~includes ~loader root rest

let of_ast ?(loader = fun _ -> None) ast =
  process_toplevels ~depth:0 ~includes:(ref 0) ~loader empty ast

let of_source ?loader ~file src = of_ast ?loader (Parser.parse ~file src)

(* Multi-error loading: parse with recovery, then process each top-level
   item in isolation, so every syntax error and every semantic merge error
   in the file (and its includes) is reported in one run.  Only the two
   include bounds are fatal, as dtc's nesting bound is: a cycle entered
   twice per level would otherwise double its work at each one. *)
let of_source_diags ?(loader = fun _ -> None) ~file src =
  let errs = ref [] and includes = ref 0 in
  let note msg loc = errs := (msg, loc) :: !errs in
  let parse_one ~file src =
    let ast, es = Parser.parse_partial ~file src in
    List.iter (fun (msg, loc) -> note msg loc) es;
    ast
  in
  let exception Fatal in
  let fatal msg loc =
    note msg loc;
    raise Fatal
  in
  let rec go depth root = function
    | [] -> root
    | item :: rest ->
      let root =
        try
          match item with
          | Ast.Include (_, loc) when depth >= max_include_depth -> fatal too_deep loc
          | Ast.Include (_, loc) when !includes >= max_includes -> fatal too_many loc
          | Ast.Include (file, loc) -> begin
            incr includes;
            match loader file with
            | None ->
              note (Fmt.str "cannot resolve /include/ %S" file) loc;
              root
            | Some src -> go (depth + 1) root (parse_one ~file src)
          end
          | item -> process_toplevels ~depth ~includes ~loader root [ item ]
        with Error (msg, loc) ->
          note msg loc;
          root
      in
      go depth root rest
  in
  let root = try Some (go 0 empty (parse_one ~file src)) with Fatal -> None in
  match (root, List.rev !errs) with
  | Some root, [] -> Ok root
  | _, errs -> Result.Error errs

let memreserves_of_ast ast =
  List.filter_map (function Ast.Memreserve (a, s) -> Some (a, s) | _ -> None) ast

(* --- phandle resolution -------------------------------------------------------------- *)

let resolve_phandles t =
  (* First pass: collect referenced labels. *)
  let referenced =
    fold
      (fun _path node acc ->
        List.fold_left
          (fun acc p ->
            List.fold_left
              (fun acc piece ->
                match piece with
                | Ast.Cells { cells; _ } ->
                  List.fold_left
                    (fun acc c ->
                      match c with Ast.Cell_ref l when not (List.mem l acc) -> l :: acc | _ -> acc)
                    acc cells
                | Ast.Str _ | Ast.Bytes _ | Ast.Ref_path _ -> acc)
              acc p.p_value)
          acc node.props)
      t []
  in
  (* Assign phandle numbers, respecting already-present phandle properties. *)
  let used =
    fold
      (fun _path node acc ->
        match get_prop node "phandle" with
        | Some p -> (match prop_u32s p with [ v ] -> v :: acc | _ -> acc)
        | None -> acc)
      t []
  in
  let next = ref 1L in
  let fresh_phandle () =
    while List.mem !next used do
      next := Int64.add !next 1L
    done;
    let v = !next in
    next := Int64.add !next 1L;
    v
  in
  let assignment =
    List.map
      (fun label ->
        match find_label t label with
        | None -> error Loc.dummy "reference to undefined label &%s" label
        | Some (path, node) ->
          let v =
            match get_prop node "phandle" with
            | Some p -> (match prop_u32s p with [ v ] -> v | _ -> fresh_phandle ())
            | None -> fresh_phandle ()
          in
          (label, path, v))
      (List.rev referenced)
  in
  (* Insert phandle properties. *)
  let t =
    List.fold_left
      (fun t (_label, path, v) ->
        set_prop t ~path "phandle" [ Ast.Cells { bits = 32; cells = [ Ast.Cell_int v ] } ])
      t assignment
  in
  (* Rewrite references. *)
  let rewrite_piece piece =
    match piece with
    | Ast.Cells { bits; cells } ->
      Ast.Cells
        {
          bits;
          cells =
            List.map
              (function
                | Ast.Cell_ref l ->
                  let (_, _, v) =
                    List.find (fun (l', _, _) -> String.equal l l') assignment
                  in
                  Ast.Cell_int v
                | Ast.Cell_int _ as c -> c)
              cells;
        }
    | Ast.Str _ | Ast.Bytes _ | Ast.Ref_path _ -> piece
  in
  let rec rewrite node =
    {
      node with
      props = List.map (fun p -> { p with p_value = List.map rewrite_piece p.p_value }) node.props;
      children = List.map rewrite node.children;
    }
  in
  rewrite t

(* --- equality -------------------------------------------------------------------------- *)

let rec equal a b =
  String.equal a.name b.name
  && List.length a.props = List.length b.props
  && List.for_all2
       (fun p q ->
         String.equal p.p_name q.p_name && p.p_value = q.p_value)
       a.props b.props
  && List.length a.children = List.length b.children
  && List.for_all2 equal a.children b.children
