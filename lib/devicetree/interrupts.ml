(* Interrupt topology resolution, per the DeviceTree interrupt-mapping
   conventions:

   - a device's interrupt parent is its [interrupt-parent] phandle, inherited
     from the nearest ancestor when absent, falling back to the nearest
     ancestor that is itself an [interrupt-controller];
   - the controller's [#interrupt-cells] (default 1) determines how many
     cells form one interrupt specifier in [interrupts];
   - [interrupts-extended] interleaves an explicit controller phandle before
     each specifier, overriding the inherited parent.

   Nexus nodes ([interrupt-map]) are traversed: a specifier targeting a
   nexus is masked with [interrupt-map-mask], matched against the map
   entries and routed (possibly through several nexus levels) to its final
   controller; the common #address-cells = 0 nexus form is supported.
   Phandles must be resolved ([Tree.resolve_phandles]) before calling in
   here. *)

type spec = {
  device : string;           (* path of the node raising the interrupt *)
  controller : string;       (* path of the interrupt parent *)
  cells : int64 list;        (* one specifier, #interrupt-cells long *)
  loc : Loc.t;
}

exception Error of string * Loc.t

let error loc fmt = Fmt.kstr (fun msg -> raise (Error (msg, loc))) fmt

let is_controller node = Tree.has_prop node "interrupt-controller"

(* phandle value -> node path *)
let phandle_table tree =
  Tree.fold
    (fun path node acc ->
      match Tree.get_prop node "phandle" with
      | Some p -> (match Tree.prop_u32s p with [ v ] -> (v, path) :: acc | _ -> acc)
      | None -> acc)
    tree []

let interrupt_cells node =
  match Tree.get_prop node "#interrupt-cells" with
  | None -> 1
  | Some p ->
    (match Tree.prop_u32s p with
     | [ v ] ->
       let n = Int64.to_int v in
       if n < 1 || n > 8 then error p.Tree.p_loc "#interrupt-cells value %d out of range" n;
       n
     | _ -> error p.Tree.p_loc "#interrupt-cells must be a single cell")

let chunk ~loc ~what n cells =
  let rec go cells acc =
    match cells with
    | [] -> List.rev acc
    | _ ->
      let rec take k cells spec =
        if k = 0 then (List.rev spec, cells)
        else
          match cells with
          | [] -> error loc "%s: trailing cells do not form a full specifier" what
          | c :: rest -> take (k - 1) rest (c :: spec)
      in
      let spec, rest = take n cells [] in
      go rest (spec :: acc)
  in
  go cells []

(* --- interrupt nexus (interrupt-map) -------------------------------------------- *)

(* An interrupt nexus routes child specifiers to (possibly several) parent
   controllers through its [interrupt-map]:

     entry := child-unit-address child-spec parent-phandle
              parent-unit-address parent-spec

   with the child address/spec masked by [interrupt-map-mask] before
   matching.  We support the common #address-cells = 0 nexus (no unit
   addresses on the child side), which covers PCI-less embedded maps. *)
type map_entry = {
  child_spec : int64 list;
  parent_phandle : int64;
  parent_spec : int64 list;
}

let nexus_map tree node =
  match Tree.get_prop node "interrupt-map" with
  | None -> None
  | Some p ->
    let loc = p.Tree.p_loc in
    let child_cells = interrupt_cells node in
    let address_cells =
      match Tree.get_prop node "#address-cells" with
      | Some ac -> (match Tree.prop_u32s ac with [ v ] -> Int64.to_int v | _ -> 0)
      | None -> 0
    in
    if address_cells <> 0 then
      error loc "interrupt-map with #address-cells > 0 is not supported";
    let mask =
      match Tree.get_prop node "interrupt-map-mask" with
      | None -> List.init child_cells (fun _ -> 0xFFFFFFFFL)
      | Some m ->
        let cells = Tree.prop_u32s m in
        if List.length cells <> child_cells then
          error loc "interrupt-map-mask has %d cells, expected %d" (List.length cells)
            child_cells
        else cells
    in
    let phandles = phandle_table tree in
    let rec take k cells acc =
      if k = 0 then (List.rev acc, cells)
      else
        match cells with
        | [] -> error loc "interrupt-map: truncated entry"
        | c :: rest -> take (k - 1) rest (c :: acc)
    in
    let rec entries cells acc =
      match cells with
      | [] -> List.rev acc
      | _ ->
        let child_spec, cells = take child_cells cells [] in
        let parent_phandle, cells =
          match cells with
          | [] -> error loc "interrupt-map: missing parent phandle"
          | p :: rest -> (p, rest)
        in
        let parent_path =
          match List.assoc_opt parent_phandle phandles with
          | Some path -> path
          | None -> error loc "interrupt-map parent phandle %Ld does not resolve" parent_phandle
        in
        let parent_node =
          match Tree.find tree parent_path with
          | Some n -> n
          | None -> error loc "interrupt-map parent %s not found" parent_path
        in
        let parent_ac =
          match Tree.get_prop parent_node "#address-cells" with
          | Some ac -> (match Tree.prop_u32s ac with [ v ] -> Int64.to_int v | _ -> 0)
          | None -> 0
        in
        let _, cells = take parent_ac cells [] in
        let parent_spec, cells = take (interrupt_cells parent_node) cells [] in
        entries cells ({ child_spec; parent_phandle; parent_spec } :: acc)
    in
    Some (mask, entries (Tree.prop_u32s p) [])

(* Route a specifier through a nexus; [None] when no entry matches. *)
let route_through_nexus ~mask entries spec =
  let masked = List.map2 Int64.logand spec mask in
  List.find_map
    (fun e ->
      let entry_masked = List.map2 Int64.logand e.child_spec mask in
      if entry_masked = masked then Some (e.parent_phandle, e.parent_spec) else None)
    entries

(* Resolve all interrupt specifiers of the tree. *)
let specs tree =
  let phandles = phandle_table tree in
  let controller_of_phandle ~loc v =
    match List.assoc_opt v phandles with
    | Some path -> path
    | None -> error loc "interrupt parent phandle %Ld does not resolve" v
  in
  let rec walk node path ~(inherited : int64 option) ~(ancestors : (string * Tree.t) list)
      acc =
    let own_parent =
      match Tree.get_prop node "interrupt-parent" with
      | Some p -> (match Tree.prop_u32s p with v :: _ -> Some v | [] -> inherited)
      | None -> inherited
    in
    let resolve_parent ~loc =
      match own_parent with
      | Some v ->
        let cpath = controller_of_phandle ~loc v in
        (match Tree.find tree cpath with
         | Some cnode -> (cpath, cnode)
         | None -> error loc "interrupt parent %s not found" cpath)
      | None ->
        (* Nearest ancestor that is an interrupt controller; with none
           declared anywhere, devices share the root as an implicit default
           domain (dtc merely warns in this situation). *)
        (match List.find_opt (fun (_, a) -> is_controller a) ancestors with
         | Some (apath, anode) -> (apath, anode)
         | None ->
           ignore loc;
           ("/", tree))
    in
    (* Follow interrupt-map nexus nodes (bounded, to reject cycles) until a
       real controller is reached. *)
    let rec through_nexus ~loc depth cpath cnode spec =
      if depth > 8 then error loc "interrupt-map nesting too deep (cycle?)";
      match nexus_map tree cnode with
      | None -> (cpath, spec)
      | Some (mask, entries) -> begin
        match route_through_nexus ~mask entries spec with
        | None ->
          error loc "no interrupt-map entry of %s matches specifier <%s>" cpath
            (String.concat " " (List.map Int64.to_string spec))
        | Some (parent_phandle, parent_spec) ->
          let parent_path = controller_of_phandle ~loc parent_phandle in
          let parent_node =
            match Tree.find tree parent_path with
            | Some n -> n
            | None -> error loc "interrupt parent %s not found" parent_path
          in
          through_nexus ~loc (depth + 1) parent_path parent_node parent_spec
      end
    in
    let acc =
      match Tree.get_prop node "interrupts" with
      | None -> acc
      | Some p ->
        let loc = p.Tree.p_loc in
        let cpath, cnode = resolve_parent ~loc in
        let n = interrupt_cells cnode in
        let cells = Tree.prop_u32s p in
        acc
        @ List.map
            (fun spec ->
              let controller, cells = through_nexus ~loc 0 cpath cnode spec in
              { device = path; controller; cells; loc })
            (chunk ~loc ~what:"interrupts" n cells)
    in
    let acc =
      match Tree.get_prop node "interrupts-extended" with
      | None -> acc
      | Some p ->
        let loc = p.Tree.p_loc in
        let rec go cells acc =
          match cells with
          | [] -> acc
          | ph :: rest ->
            let cpath = controller_of_phandle ~loc ph in
            let cnode =
              match Tree.find tree cpath with
              | Some c -> c
              | None -> error loc "interrupt parent %s not found" cpath
            in
            let n = interrupt_cells cnode in
            let rec take k cells spec =
              if k = 0 then (List.rev spec, cells)
              else
                match cells with
                | [] -> error loc "interrupts-extended: truncated specifier"
                | c :: r -> take (k - 1) r (c :: spec)
            in
            let spec, rest = take n rest [] in
            let controller, cells = through_nexus ~loc 0 cpath cnode spec in
            go rest (acc @ [ { device = path; controller; cells; loc } ])
        in
        go (Tree.prop_u32s p) acc
    in
    List.fold_left
      (fun acc child ->
        walk child (Tree.join_path path child.Tree.name) ~inherited:own_parent
          ~ancestors:((path, node) :: ancestors)
          acc)
      acc node.Tree.children
  in
  walk tree "/" ~inherited:None ~ancestors:[] []

(* Pack a specifier into a single 64-bit key (first two cells); used by the
   semantic checker's Distinct constraint. *)
let spec_key s =
  match s.cells with
  | [] -> 0L
  | [ a ] -> Int64.logand a 0xFFFFFFFFL
  | a :: b :: _ ->
    Int64.logor (Int64.shift_left (Int64.logand a 0xFFFFFFFFL) 32) (Int64.logand b 0xFFFFFFFFL)

let pp_spec ppf s =
  Fmt.pf ppf "%s -> %s <%a>" s.device s.controller
    Fmt.(list ~sep:(any " ") (fmt "%Ld"))
    s.cells
