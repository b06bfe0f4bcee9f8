(* Tests for the DeviceTree substrate: lexing/parsing, dtc merge semantics,
   deletes, includes, labels and phandles, property decoding, the
   #address-cells/#size-cells interpretation of reg/ranges, the DTS printer
   round trip, and the FDT (DTB) codec round trip. *)

module T = Devicetree.Tree
module A = Devicetree.Ast
module Addr = Devicetree.Addresses

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* The paper's running example (Listing 1), with the processor cluster in an
   included file (Listing 2). *)
let cpus_dtsi =
  {|
/ {
    cpus {
        #address-cells = <0x1>;
        #size-cells = <0x0>;

        cpu@0 {
            compatible = "arm,cortex-a53";
            device_type = "cpu";
            enable-method = "psci";
            reg = <0x0>;
        };

        cpu@1 {
            compatible = "arm,cortex-a53";
            device_type = "cpu";
            enable-method = "psci";
            reg = <0x1>;
        };
    };
};
|}

let running_example_dts =
  {|
/dts-v1/;

/ {
    #address-cells = <2>;
    #size-cells = <2>;

    memory@40000000 {
        device_type = "memory";
        reg = <0x0 0x40000000 0x0 0x20000000
               0x0 0x60000000 0x0 0x20000000>;
    };

    uart0: uart@20000000 {
        compatible = "ns16550a";
        reg = <0x0 0x20000000 0x0 0x1000>;
    };

    uart1: uart@30000000 {
        compatible = "ns16550a";
        reg = <0x0 0x30000000 0x0 0x1000>;
    };
};

/include/ "cpus.dtsi"
|}

let loader = function "cpus.dtsi" -> Some cpus_dtsi | _ -> None

let parse_example () = T.of_source ~loader ~file:"example.dts" running_example_dts

(* --- parsing ------------------------------------------------------------------ *)

let test_parse_running_example () =
  let t = parse_example () in
  check_bool "memory exists" true (T.find t "/memory@40000000" <> None);
  check_bool "cpu@0 via include" true (T.find t "/cpus/cpu@0" <> None);
  check_bool "cpu@1 via include" true (T.find t "/cpus/cpu@1" <> None);
  let memory = T.find_exn t "/memory@40000000" in
  check_str "device_type" "memory"
    (Option.get (T.prop_string (Option.get (T.get_prop memory "device_type"))));
  let reg = Option.get (T.get_prop memory "reg") in
  check_int "reg has 8 cells" 8 (List.length (T.prop_u32s reg))

let test_parse_labels () =
  let t = parse_example () in
  match T.find_label t "uart0" with
  | Some (path, _) -> check_str "label path" "/uart@20000000" path
  | None -> Alcotest.fail "label uart0 not found"

let test_missing_include () =
  try
    ignore (T.of_source ~file:"x.dts" "/include/ \"nope.dtsi\"" : T.t);
    Alcotest.fail "expected include error"
  with T.Error (msg, _) -> check_bool "mentions file" true (Test_util.contains msg "nope")

(* A chain in which every file includes the next one twice doubles the
   work at each level: 30 levels nest only 30 deep but would expand
   2^31 - 2 includes.  The expansions of the whole tree stop at the bound,
   1,000, with one error.  The loader fails once called past it, so an
   unbounded expansion fails here instead of hanging. *)
let test_include_doubling () =
  let files =
    ("top.dts", "/dts-v1/;\n/include/ \"c1.dtsi\"\n/include/ \"c1.dtsi\"\n")
    :: ("c30.dtsi", "/ { leaf; };\n")
    :: List.init 29 (fun i ->
           let next = Printf.sprintf "/include/ \"c%d.dtsi\"\n" (i + 2) in
           (Printf.sprintf "c%d.dtsi" (i + 1), next ^ next))
  in
  let loads = ref 0 in
  let loader name =
    incr loads;
    if !loads > 1001 then failwith "include loader: over 1001 loads";
    List.assoc_opt name files
  in
  let want = "more than 1000 includes in one tree" and src = List.assoc "top.dts" files in
  (match T.of_source_diags ~loader ~file:"top.dts" src with
   | Ok _ -> Alcotest.fail "the chain parsed"
   | Error errs -> Alcotest.(check (list string)) "one error" [ want ] (List.map fst errs));
  loads := 0;
  match T.of_source ~loader ~file:"top.dts" src with
  | _ -> Alcotest.fail "of_source parsed"
  | exception T.Error (msg, _) -> check_str "of_source" want msg

(* An include cycle stops at the nesting bound with one error at the
   include that crosses it, even a file that includes itself twice; a
   file included twice side by side is no cycle.  The loader gives up
   after 1,000 loads, so an unbounded cycle fails here instead of
   hanging. *)
let test_include_cycles () =
  let loader files =
    let loads = ref 0 in
    fun name ->
      incr loads;
      if !loads > 1000 then failwith "include loader: over 1000 loads";
      List.assoc_opt name files
  in
  let cyclic what ~file files =
    match T.of_source_diags ~loader:(loader files) ~file (List.assoc file files) with
    | Ok _ -> Alcotest.failf "%s: parsed" what
    | Error errs ->
      Alcotest.(check (list string)) what [ "includes nested too deeply" ] (List.map fst errs);
      (match T.of_source ~loader:(loader files) ~file (List.assoc file files) with
       | _ -> Alcotest.failf "%s: of_source parsed" what
       | exception T.Error (msg, _) -> check_str (what ^ " (of_source)") "includes nested too deeply" msg)
  in
  cyclic "self include" ~file:"self.dts" [ ("self.dts", "/include/ \"self.dts\"\n") ];
  cyclic "double self include" ~file:"x.dtsi"
    [ ("x.dtsi", "/include/ \"x.dtsi\"\n/include/ \"x.dtsi\"\n") ];
  cyclic "A -> B -> A" ~file:"a.dts"
    [ ("a.dts", "/dts-v1/;\n/include/ \"b.dtsi\"\n"); ("b.dtsi", "/include/ \"a.dts\"\n") ];
  let diamond =
    [ ("top.dts", "/dts-v1/;\n/include/ \"l.dtsi\"\n/include/ \"r.dtsi\"\n/ { top; };\n");
      ("l.dtsi", "/include/ \"d.dtsi\"\n/ { l; };\n");
      ("r.dtsi", "/include/ \"d.dtsi\"\n/ { r; };\n");
      ("d.dtsi", "/ { d; };\n") ]
  in
  match T.of_source_diags ~loader:(loader diamond) ~file:"top.dts" (List.assoc "top.dts" diamond) with
  | Error errs -> Alcotest.failf "diamond: %s" (String.concat "; " (List.map fst errs))
  | Ok t ->
    Alcotest.(check (list string)) "diamond props" [ "d"; "l"; "r"; "top" ]
      (List.sort compare (List.map (fun p -> p.T.p_name) t.T.props))

(* --- merge semantics ------------------------------------------------------------ *)

let test_merge_repeated_nodes () =
  let src =
    {|
/dts-v1/;
/ {
    node { a = <1>; b = <2>; };
};
/ {
    node { b = <3>; c = <4>; };
};
|}
  in
  let t = T.of_source ~file:"m.dts" src in
  let node = T.find_exn t "/node" in
  let cell name = List.hd (T.prop_u32s (Option.get (T.get_prop node name))) in
  Alcotest.(check int64) "a kept" 1L (cell "a");
  Alcotest.(check int64) "b overridden" 3L (cell "b");
  Alcotest.(check int64) "c added" 4L (cell "c")

let test_ref_node_overlay () =
  let src =
    {|
/dts-v1/;
/ { lbl: target { x = <1>; }; };
&lbl { y = <2>; };
|}
  in
  let t = T.of_source ~file:"r.dts" src in
  let node = T.find_exn t "/target" in
  check_bool "x present" true (T.has_prop node "x");
  check_bool "y merged via label" true (T.has_prop node "y")

let test_delete_node_and_prop () =
  let src =
    {|
/dts-v1/;
/ {
    keep { p = <1>; q = <2>; };
    drop { };
};
/ {
    /delete-node/ drop;
    keep { /delete-property/ q; };
};
|}
  in
  let t = T.of_source ~file:"d.dts" src in
  check_bool "drop deleted" true (T.find t "/drop" = None);
  let keep = T.find_exn t "/keep" in
  check_bool "p kept" true (T.has_prop keep "p");
  check_bool "q deleted" false (T.has_prop keep "q")

let test_expressions_in_cells () =
  let src = {|
/dts-v1/;
/ { n { v = <(1 + 2 * 3) (1 << 4) (0x10 | 0x1) (10 / 2) (7 % 4) (-1)>; }; };
|} in
  let t = T.of_source ~file:"e.dts" src in
  let n = T.find_exn t "/n" in
  let vals = T.prop_u32s (Option.get (T.get_prop n "v")) in
  Alcotest.(check (list int64)) "folded" [ 7L; 16L; 17L; 5L; 3L; 0xFFFFFFFFL ] vals

let test_strings_and_bytes () =
  let src =
    {|
/dts-v1/;
/ { n {
    s = "hello", "world";
    b = [de ad be ef];
    mixed = "str", <1 2>;
    escaped = "a\"b\n";
}; };
|}
  in
  let t = T.of_source ~file:"s.dts" src in
  let n = T.find_exn t "/n" in
  Alcotest.(check (list string)) "strings" [ "hello"; "world" ]
    (T.prop_strings (Option.get (T.get_prop n "s")));
  (match (Option.get (T.get_prop n "b")).p_value with
   | [ A.Bytes b ] -> check_str "bytes" "\xde\xad\xbe\xef" b
   | _ -> Alcotest.fail "expected bytes");
  check_str "escapes" "a\"b\n" (Option.get (T.prop_string (Option.get (T.get_prop n "escaped"))))

let test_bits_directive () =
  let src = {|
/dts-v1/;
/ { n { wide = /bits/ 64 <0x123456789abcdef0>; narrow = /bits/ 8 <0xff 0x01>; }; };
|} in
  let t = T.of_source ~file:"b.dts" src in
  let n = T.find_exn t "/n" in
  (match T.prop_cells (Option.get (T.get_prop n "wide")) with
   | [ (64, v) ] -> Alcotest.(check int64) "64-bit cell" 0x123456789abcdef0L v
   | _ -> Alcotest.fail "expected one 64-bit cell");
  check_int "two 8-bit cells" 2 (List.length (T.prop_cells (Option.get (T.get_prop n "narrow"))))

let test_parse_errors () =
  let expect_error src =
    try
      ignore (T.of_source ~file:"err.dts" src : T.t);
      Alcotest.fail "expected parse error"
    with
    | Devicetree.Parser.Error _ | Devicetree.Lexer.Error _ | T.Error _ -> ()
  in
  expect_error "/ { node { }; };; extra";
  expect_error "/ { p = ; };";
  expect_error "/ { p = <1 };";
  expect_error "/ { \"unterminated };";
  expect_error "&nolabel { x = <1>; };"

(* --- parser error recovery -------------------------------------------------------- *)

let test_parse_partial_collects_all_errors () =
  (* Three independent entry-level errors: recovery must report each one
     and still parse the healthy entries around them. *)
  let src =
    "/dts-v1/;\n\
     / {\n\
     \tcompatible = \"acme,board\"\n\
     \t#address-cells = <1>;\n\
     \t#size-cells = ;\n\
     \tmemory@0 { device_type = \"memory\"; reg = <0x0 0x10000>; };\n\
     \tchosen { bootargs = 42; };\n\
     };\n"
  in
  let ast, errs = Devicetree.Parser.parse_partial ~file:"multi.dts" src in
  Alcotest.(check int) "three errors" 3 (List.length errs);
  let lines = List.map (fun (_, l) -> l.Devicetree.Loc.line) errs in
  Alcotest.(check (list int)) "error lines in source order" [ 4; 5; 7 ] lines;
  (* The healthy memory node survives in the partial AST. *)
  let t = T.of_ast ast in
  check_bool "memory node parsed" true (T.find t "/memory@0" <> None)

let test_parse_partial_clean_and_fatal () =
  (* Clean input: same AST as the fail-fast parser, no errors. *)
  let src = "/dts-v1/;\n/ { x = <1>; };\n" in
  let ast, errs = Devicetree.Parser.parse_partial ~file:"ok.dts" src in
  check_bool "no errors" true (errs = []);
  check_bool "same ast" true (ast = Devicetree.Parser.parse ~file:"ok.dts" src);
  (* A lexer error is not recoverable: empty AST, one diagnostic. *)
  let ast, errs = Devicetree.Parser.parse_partial ~file:"lex.dts" "/ { \"unterminated };" in
  check_bool "empty ast on lexer error" true (ast = []);
  Alcotest.(check int) "one lexer error" 1 (List.length errs)

let test_parse_partial_missing_brace () =
  let _, errs = Devicetree.Parser.parse_partial ~file:"trunc.dts" "/ { x = <1>;" in
  check_bool "truncated file reports errors" true (errs <> []);
  (* Recovery must terminate on pathological inputs (progress guarantee). *)
  let _, errs = Devicetree.Parser.parse_partial ~file:"junk.dts" "}}}; ;; <>& {" in
  check_bool "junk reports errors" true (errs <> [])

let test_of_source_diags () =
  (* One syntax error and one semantic (merge) error, reported together. *)
  let src = "/dts-v1/;\n/ { p = ; };\n&missing { q = <1>; };\n" in
  (match T.of_source_diags ~file:"both.dts" src with
   | Ok _ -> Alcotest.fail "expected errors"
   | Error errs -> Alcotest.(check int) "syntax + merge errors" 2 (List.length errs));
  match T.of_source_diags ~file:"ok.dts" "/dts-v1/;\n/ { x = <1>; };\n" with
  | Ok t -> check_bool "clean parses" true (T.find t "/" <> None)
  | Error _ -> Alcotest.fail "clean input must be Ok"

(* --- updates --------------------------------------------------------------------- *)

let test_tree_updates () =
  let t = parse_example () in
  let t = T.add_node t ~parent:"/" "vEthernet" in
  check_bool "added" true (T.find t "/vEthernet" <> None);
  let t =
    T.set_prop t ~path:"/vEthernet" "compatible" [ A.Str "veth" ]
  in
  check_str "prop set" "veth"
    (Option.get (T.prop_string (Option.get (T.get_prop (T.find_exn t "/vEthernet") "compatible"))));
  let t = T.remove_prop t ~path:"/vEthernet" "compatible" in
  check_bool "prop removed" false (T.has_prop (T.find_exn t "/vEthernet") "compatible");
  let t = T.remove_node t ~path:"/vEthernet" in
  check_bool "node removed" true (T.find t "/vEthernet" = None);
  (try
     ignore (T.remove_node t ~path:"/nonexistent" : T.t);
     Alcotest.fail "expected error"
   with T.Error _ -> ())

(* --- phandles --------------------------------------------------------------------- *)

let test_phandle_resolution () =
  let src =
    {|
/dts-v1/;
/ {
    intc: interrupt-controller { };
    dev { interrupt-parent = <&intc>; };
};
|}
  in
  let t = T.of_source ~file:"p.dts" src in
  let t = T.resolve_phandles t in
  let intc = T.find_exn t "/interrupt-controller" in
  let phandle = List.hd (T.prop_u32s (Option.get (T.get_prop intc "phandle"))) in
  let dev = T.find_exn t "/dev" in
  let parent = List.hd (T.prop_u32s (Option.get (T.get_prop dev "interrupt-parent"))) in
  Alcotest.(check int64) "reference resolved to phandle" phandle parent

(* --- addresses --------------------------------------------------------------------- *)

let test_reg_decoding_2_2 () =
  let t = parse_example () in
  let regions = Addr.regions_in_root_space t in
  let memory = List.find (fun r -> r.Addr.path = "/memory@40000000") regions in
  Alcotest.(check int) "two banks" 2 (List.length memory.regions);
  let bank1 = List.nth memory.regions 0 and bank2 = List.nth memory.regions 1 in
  Alcotest.(check int64) "bank1 base" 0x40000000L bank1.Addr.base;
  Alcotest.(check int64) "bank1 size" 0x20000000L bank1.Addr.size;
  Alcotest.(check int64) "bank2 base" 0x60000000L bank2.Addr.base

let test_reg_decoding_1_0 () =
  (* Inside /cpus, #address-cells=1 #size-cells=0: reg is a bare CPU id,
     the other interpretation of reg discussed in §II-A. *)
  let t = parse_example () in
  let cpus = T.find_exn t "/cpus" in
  Alcotest.(check int) "address-cells" 1 (Addr.address_cells cpus);
  Alcotest.(check int) "size-cells" 0 (Addr.size_cells cpus);
  let cpu0 = T.find_exn t "/cpus/cpu@0" in
  let regions =
    Addr.decode_reg ~address_cells:1 ~size_cells:0 (Option.get (T.get_prop cpu0 "reg"))
  in
  (match regions with
   | [ r ] ->
     Alcotest.(check int64) "cpu id" 0L r.Addr.base;
     Alcotest.(check int64) "no size" 0L r.Addr.size
   | _ -> Alcotest.fail "expected one entry")

let test_reg_bad_multiple () =
  let src = {|
/dts-v1/;
/ { #address-cells = <2>; #size-cells = <2>;
    dev { reg = <0x0 0x1000 0x0>; };
};
|} in
  let t = T.of_source ~file:"bad.dts" src in
  try
    ignore (Addr.regions_in_root_space t : Addr.node_regions list);
    Alcotest.fail "expected stride error"
  with Addr.Error (msg, _) ->
    check_bool "mentions multiple" true (Test_util.contains msg "multiple")

let test_ranges_translation () =
  let src =
    {|
/dts-v1/;
/ {
    #address-cells = <1>;
    #size-cells = <1>;
    soc {
        #address-cells = <1>;
        #size-cells = <1>;
        ranges = <0x0 0xf0000000 0x10000>;
        serial@100 { reg = <0x100 0x20>; };
    };
};
|}
  in
  let t = T.of_source ~file:"rng.dts" src in
  let regions = Addr.regions_in_root_space t in
  let serial = List.find (fun r -> r.Addr.path = "/soc/serial@100") regions in
  check_bool "translated" true serial.Addr.translated;
  (match serial.Addr.regions with
   | [ r ] -> Alcotest.(check int64) "translated base" 0xf0000100L r.Addr.base
   | _ -> Alcotest.fail "expected one region")

let test_empty_ranges_identity () =
  let src =
    {|
/dts-v1/;
/ {
    #address-cells = <1>; #size-cells = <1>;
    bus { #address-cells = <1>; #size-cells = <1>; ranges;
        dev@8000 { reg = <0x8000 0x100>; };
    };
};
|}
  in
  let t = T.of_source ~file:"id.dts" src in
  let regions = Addr.regions_in_root_space t in
  let dev = List.find (fun r -> r.Addr.path = "/bus/dev@8000") regions in
  check_bool "translated" true dev.Addr.translated;
  (match dev.Addr.regions with
   | [ r ] -> Alcotest.(check int64) "identity base" 0x8000L r.Addr.base
   | _ -> Alcotest.fail "expected one region")

let test_no_ranges_not_translatable () =
  let src =
    {|
/dts-v1/;
/ {
    #address-cells = <1>; #size-cells = <1>;
    bus { #address-cells = <1>; #size-cells = <1>;
        dev@8000 { reg = <0x8000 0x100>; };
    };
};
|}
  in
  let t = T.of_source ~file:"nr.dts" src in
  let regions = Addr.regions_in_root_space t in
  let dev = List.find (fun r -> r.Addr.path = "/bus/dev@8000") regions in
  check_bool "not translated" false dev.Addr.translated

(* --- printer round trip ------------------------------------------------------------- *)

let test_printer_roundtrip () =
  let t = parse_example () in
  let printed = Devicetree.Printer.to_string t in
  let t' = T.of_source ~file:"printed.dts" printed in
  check_bool "round trip equal" true (T.equal t t')

let test_printer_roundtrip_rich () =
  let src =
    {|
/dts-v1/;
/ {
    compatible = "custom,sbc";
    flag;
    lbl: sub@1000 {
        bytes = [01 02 03];
        strs = "a", "b";
        wide = /bits/ 64 <0xdeadbeefcafebabe>;
    };
};
|}
  in
  let t = T.of_source ~file:"rich.dts" src in
  let t' = T.of_source ~file:"printed.dts" (Devicetree.Printer.to_string t) in
  check_bool "round trip equal" true (T.equal t t')

(* --- FDT round trip ------------------------------------------------------------------ *)

(* Compare trees after serialising every property to raw bytes (a decoded
   blob has no type information). *)
let rec canonical (t : T.t) : T.t =
  {
    t with
    props =
      List.map
        (fun p ->
          let raw = Devicetree.Fdt.prop_raw_bytes p in
          { p with T.p_value = (if raw = "" then [] else [ A.Bytes raw ]) })
        t.props;
    children = List.map canonical t.children;
  }

let test_fdt_roundtrip () =
  let t = T.resolve_phandles (parse_example ()) in
  let blob = Devicetree.Fdt.encode t in
  let decoded, memreserves = Devicetree.Fdt.decode blob in
  check_bool "no memreserves" true (memreserves = []);
  check_bool "tree preserved" true (T.equal (canonical t) decoded)

let test_fdt_memreserve () =
  let t = parse_example () in
  let blob = Devicetree.Fdt.encode ~memreserves:[ (0x10000000L, 0x4000L) ] t in
  let _, memreserves = Devicetree.Fdt.decode blob in
  Alcotest.(check (list (pair int64 int64))) "memreserve preserved"
    [ (0x10000000L, 0x4000L) ] memreserves

let test_fdt_header_fields () =
  let t = parse_example () in
  let blob = Devicetree.Fdt.encode t in
  check_bool "magic" true
    (Char.code blob.[0] = 0xd0 && Char.code blob.[1] = 0x0d
     && Char.code blob.[2] = 0xfe && Char.code blob.[3] = 0xed);
  (* total size field matches the actual length *)
  let be32 off =
    (Char.code blob.[off] lsl 24) lor (Char.code blob.[off + 1] lsl 16)
    lor (Char.code blob.[off + 2] lsl 8) lor Char.code blob.[off + 3]
  in
  check_int "totalsize" (String.length blob) (be32 4);
  check_int "version 17" 17 (be32 20)

let test_fdt_bad_magic () =
  try
    ignore (Devicetree.Fdt.decode "not a blob at all..." : T.t * (int64 * int64) list);
    Alcotest.fail "expected magic error"
  with Devicetree.Fdt.Error _ -> ()


(* --- properties: round trips on random trees ---------------------------------- *)

(* Random semantic trees: random names, property shapes, nesting. *)
let gen_tree =
  let open QCheck.Gen in
  let gen_name =
    let* base = oneofl [ "node"; "dev"; "bus"; "mem" ] in
    let* addr = opt (int_bound 0xffff) in
    return (match addr with Some a -> Printf.sprintf "%s@%x" base a | None -> base)
  in
  let gen_piece =
    oneof
      [ (let* n = int_range 1 4 in
         let* cells = list_repeat n (map Int64.of_int (int_bound 0xFFFF)) in
         return (A.Cells { bits = 32; cells = List.map (fun c -> A.Cell_int c) cells }));
        map (fun s -> A.Str s) (oneofl [ "alpha"; "beta"; "x y"; "" ]);
        (let* n = int_range 1 4 in
         let* bytes = list_repeat n (int_bound 255) in
         return (A.Bytes (String.init n (fun i -> Char.chr (List.nth bytes i)))));
      ]
  in
  let gen_prop i =
    let* pieces = list_size (int_range 0 2) gen_piece in
    return { T.p_name = Printf.sprintf "prop%d" i; p_value = pieces; p_loc = Devicetree.Loc.dummy }
  in
  let rec gen_node depth =
    let* name = gen_name in
    let* nprops = int_range 0 3 in
    let* props =
      List.fold_left
        (fun acc i ->
          let* acc = acc in
          let* p = gen_prop i in
          return (p :: acc))
        (return [])
        (List.init nprops (fun i -> i))
    in
    let* children =
      if depth = 0 then return []
      else
        let* n = int_range 0 2 in
        (* Child names must be unique within a parent for round-tripping. *)
        let rec gen_children k acc =
          if k = 0 then return (List.rev acc)
          else
            let* c = gen_node (depth - 1) in
            if List.exists (fun c' -> c'.T.name = c.T.name) acc then gen_children k acc
            else gen_children (k - 1) (c :: acc)
        in
        gen_children n []
    in
    return { T.name; labels = []; props; children; loc = Devicetree.Loc.dummy }
  in
  let* root = gen_node 2 in
  return { root with T.name = "/" }

let prop_printer_roundtrip =
  QCheck.Test.make ~count:200 ~name:"printer round trip (random trees)"
    (QCheck.make gen_tree)
    (fun tree ->
      let printed = Devicetree.Printer.to_string tree in
      let reparsed = T.of_source ~file:"rt.dts" printed in
      T.equal tree reparsed)

let prop_fdt_roundtrip =
  QCheck.Test.make ~count:200 ~name:"FDT round trip (random trees)"
    (QCheck.make gen_tree)
    (fun tree ->
      let blob = Devicetree.Fdt.encode tree in
      let decoded, _ = Devicetree.Fdt.decode blob in
      T.equal (canonical tree) decoded)


(* --- interrupt resolution -------------------------------------------------------- *)

let test_interrupt_inheritance () =
  (* interrupt-parent on the bus is inherited by children. *)
  let src = {|
/dts-v1/;
/ {
    gic: intc { interrupt-controller; #interrupt-cells = <2>; };
    bus {
        interrupt-parent = <&gic>;
        dev-a { interrupts = <0 7>; };
        dev-b { interrupts = <0 9 1 4>; };
    };
};
|} in
  let t = T.resolve_phandles (T.of_source ~file:"i.dts" src) in
  let specs = Devicetree.Interrupts.specs t in
  Alcotest.(check int) "three specifiers" 3 (List.length specs);
  List.iter
    (fun s -> check_str "controller" "/intc" s.Devicetree.Interrupts.controller)
    specs;
  let dev_b = List.filter (fun s -> s.Devicetree.Interrupts.device = "/bus/dev-b") specs in
  Alcotest.(check int) "dev-b raises two" 2 (List.length dev_b);
  check_bool "two-cell specifiers" true
    (List.for_all (fun s -> List.length s.Devicetree.Interrupts.cells = 2) dev_b)

let test_interrupt_controller_ancestor_fallback () =
  (* Without interrupt-parent, the nearest ancestor controller wins. *)
  let src = {|
/dts-v1/;
/ {
    soc {
        interrupt-controller;
        #interrupt-cells = <1>;
        dev { interrupts = <5>; };
    };
};
|} in
  let t = T.of_source ~file:"f.dts" src in
  match Devicetree.Interrupts.specs t with
  | [ s ] -> check_str "ancestor controller" "/soc" s.Devicetree.Interrupts.controller
  | specs -> Alcotest.failf "expected one spec, got %d" (List.length specs)

let test_interrupts_extended () =
  let src = {|
/dts-v1/;
/ {
    gic0: a { interrupt-controller; #interrupt-cells = <1>; };
    gic1: b { interrupt-controller; #interrupt-cells = <2>; };
    dev { interrupts-extended = <&gic0 7 &gic1 0 9>; };
};
|} in
  let t = T.resolve_phandles (T.of_source ~file:"x.dts" src) in
  let specs = Devicetree.Interrupts.specs t in
  Alcotest.(check int) "two specs" 2 (List.length specs);
  let by_ctrl c = List.find (fun s -> s.Devicetree.Interrupts.controller = c) specs in
  check_bool "gic0 one cell" true ((by_ctrl "/a").Devicetree.Interrupts.cells = [ 7L ]);
  check_bool "gic1 two cells" true ((by_ctrl "/b").Devicetree.Interrupts.cells = [ 0L; 9L ])

let test_interrupts_malformed () =
  let src = {|
/dts-v1/;
/ {
    gic: intc { interrupt-controller; #interrupt-cells = <2>; };
    dev { interrupt-parent = <&gic>; interrupts = <1 2 3>; };
};
|} in
  let t = T.resolve_phandles (T.of_source ~file:"m.dts" src) in
  try
    ignore (Devicetree.Interrupts.specs t : Devicetree.Interrupts.spec list);
    Alcotest.fail "expected specifier error"
  with Devicetree.Interrupts.Error (msg, _) ->
    check_bool "mentions specifier" true (Test_util.contains msg "specifier")

let test_spec_key () =
  let mk cells =
    { Devicetree.Interrupts.device = "/d"; controller = "/c"; cells;
      loc = Devicetree.Loc.dummy }
  in
  Alcotest.(check int64) "one cell" 7L (Devicetree.Interrupts.spec_key (mk [ 7L ]));
  Alcotest.(check int64) "two cells" 0x0000000100000007L
    (Devicetree.Interrupts.spec_key (mk [ 1L; 7L ]))


(* --- overlays --------------------------------------------------------------------- *)

let overlay_base_src = {|
/dts-v1/;
/ {
    #address-cells = <1>; #size-cells = <1>;
    u0: uart@10000000 { compatible = "ns16550a"; reg = <0x10000000 0x100>; status = "disabled"; };
    spi@20000000 { reg = <0x20000000 0x100>; };
};
|}

let test_overlay_by_label () =
  let base = T.of_source ~file:"base.dts" overlay_base_src in
  let overlay =
    T.of_source ~file:"ov.dts"
      {|
/dts-v1/;
/ {
    fragment@0 {
        target = <&u0>;
        __overlay__ {
            status = "okay";
            current-speed = <115200>;
        };
    };
};
|}
  in
  let merged = Devicetree.Overlay.apply ~base ~overlay in
  let uart = T.find_exn merged "/uart@10000000" in
  check_str "status flipped" "okay" (Option.get (T.prop_string (Option.get (T.get_prop uart "status"))));
  check_bool "speed added" true (T.has_prop uart "current-speed");
  check_bool "reg untouched" true (T.has_prop uart "reg")

let test_overlay_by_path_with_child () =
  let base = T.of_source ~file:"base.dts" overlay_base_src in
  let overlay =
    T.of_source ~file:"ov.dts"
      {|
/dts-v1/;
/ {
    fragment@0 {
        target-path = "/spi@20000000";
        __overlay__ {
            flash@0 { compatible = "jedec,spi-nor"; reg = <0>; };
        };
    };
};
|}
  in
  let merged = Devicetree.Overlay.apply ~base ~overlay in
  check_bool "flash added under spi" true (T.find merged "/spi@20000000/flash@0" <> None)

let test_overlay_errors () =
  let base = T.of_source ~file:"base.dts" overlay_base_src in
  let missing_target =
    T.of_source ~file:"ov.dts"
      "/dts-v1/;\n/ { fragment@0 { target = <&nosuch>; __overlay__ { x = <1>; }; }; };"
  in
  (try
     ignore (Devicetree.Overlay.apply ~base ~overlay:missing_target : T.t);
     Alcotest.fail "expected error"
   with Devicetree.Overlay.Error (msg, _) ->
     check_bool "mentions target" true (Test_util.contains msg "nosuch"));
  let no_fragments = T.of_source ~file:"ov.dts" "/dts-v1/;\n/ { };" in
  try
    ignore (Devicetree.Overlay.apply ~base ~overlay:no_fragments : T.t);
    Alcotest.fail "expected error"
  with Devicetree.Overlay.Error (msg, _) ->
    check_bool "mentions fragments" true (Test_util.contains msg "fragment")

let test_overlay_then_check () =
  (* An overlay that moves a device into RAM is caught by the semantic
     checker on the merged tree. *)
  let base = T.of_source ~file:"base.dts" {|
/dts-v1/;
/ {
    #address-cells = <1>; #size-cells = <1>;
    memory@40000000 { device_type = "memory"; reg = <0x40000000 0x10000000>; };
    d0: dma@20000000 { reg = <0x20000000 0x1000>; };
};
|} in
  let overlay =
    T.of_source ~file:"ov.dts"
      "/dts-v1/;\n/ { fragment@0 { target = <&d0>; __overlay__ { reg = <0x48000000 0x1000>; }; }; };"
  in
  let merged = Devicetree.Overlay.apply ~base ~overlay in
  Alcotest.(check int) "collision after overlay" 1
    (List.length (Llhsc.Semantic.check_memory merged))


(* --- structural diff -------------------------------------------------------------- *)

let test_diff_basics () =
  let a = T.of_source ~file:"a.dts" "/dts-v1/;\n/ { n { p = <1>; q = <2>; }; gone { }; };" in
  let b = T.of_source ~file:"b.dts" "/dts-v1/;\n/ { n { p = <1>; q = <3>; r = <4>; }; fresh { }; };" in
  let changes = Devicetree.Diff.diff a b in
  let has c = List.mem c changes in
  check_bool "node added" true (has (Devicetree.Diff.Node_added "/fresh"));
  check_bool "node removed" true (has (Devicetree.Diff.Node_removed "/gone"));
  check_bool "prop changed" true (has (Devicetree.Diff.Prop_changed ("/n", "q")));
  check_bool "prop added" true (has (Devicetree.Diff.Prop_added ("/n", "r")));
  check_bool "unchanged prop silent" false
    (List.exists (fun c -> Devicetree.Diff.path_of c = "/n" && c = Devicetree.Diff.Prop_changed ("/n", "p")) changes);
  Alcotest.(check int) "exact count" 4 (List.length changes)

let test_diff_identity () =
  let t = parse_example () in
  Alcotest.(check int) "no changes" 0 (List.length (Devicetree.Diff.diff t t))

let test_diff_type_insensitive () =
  (* A typed tree and its DTB round trip are diff-equal. *)
  let t = T.resolve_phandles (parse_example ()) in
  let decoded, _ = Devicetree.Fdt.decode (Devicetree.Fdt.encode t) in
  Alcotest.(check int) "typed vs raw: no changes" 0
    (List.length (Devicetree.Diff.diff t decoded))

let test_diff_shows_delta_effect () =
  (* The diff of core vs VM1 product names exactly the delta effects. *)
  let core = Llhsc.Running_example.core_tree () in
  let vm1 =
    Delta.Apply.generate ~core ~deltas:(Llhsc.Running_example.deltas ())
      ~selected:Llhsc.Running_example.vm1_features
  in
  let changes = Devicetree.Diff.diff core vm1 in
  check_bool "vEthernet added" true
    (List.mem (Devicetree.Diff.Node_added "/vEthernet") changes);
  check_bool "cpu@1 removed" true
    (List.mem (Devicetree.Diff.Node_removed "/cpus/cpu@1") changes);
  check_bool "memory reg changed" true
    (List.mem (Devicetree.Diff.Prop_changed ("/memory@40000000", "reg")) changes)


(* --- robustness: the parser never escapes its documented exceptions -------- *)

let prop_parser_total =
  QCheck.Test.make ~count:500 ~name:"parser raises only documented exceptions"
    QCheck.(make Gen.(string_size ~gen:(char_range ' ' '~') (int_bound 80)))
    (fun garbage ->
      match T.of_source ~file:"fuzz.dts" garbage with
      | _ -> true
      | exception (Devicetree.Lexer.Error _ | Devicetree.Parser.Error _ | T.Error _) -> true
      | exception _ -> false)

let prop_yaml_total =
  QCheck.Test.make ~count:500 ~name:"yaml parser raises only documented exceptions"
    QCheck.(make Gen.(string_size ~gen:(char_range ' ' '~') (int_bound 80)))
    (fun garbage ->
      match Schema.Yaml_lite.parse garbage with
      | _ -> true
      | exception Schema.Yaml_lite.Error _ -> true
      | exception _ -> false)


let test_char_literals_and_suffixes () =
  let src = "/dts-v1/;\n/ { n { c = <'A' '\\n'>; suffixed = <10UL 0x20U>; }; };" in
  let t = T.of_source ~file:"cl.dts" src in
  let n = T.find_exn t "/n" in
  Alcotest.(check (list int64)) "char cells" [ 65L; 10L ]
    (T.prop_u32s (Option.get (T.get_prop n "c")));
  Alcotest.(check (list int64)) "suffixes stripped" [ 10L; 32L ]
    (T.prop_u32s (Option.get (T.get_prop n "suffixed")))


let test_interrupt_map_nexus () =
  (* A nexus routes line 0 to gic-a line 40 and line 1 to gic-b line 7 2. *)
  let src = {|
/dts-v1/;
/ {
    gica: gic-a { interrupt-controller; #interrupt-cells = <1>; };
    gicb: gic-b { interrupt-controller; #interrupt-cells = <2>; };
    nexus: router {
        interrupt-controller;
        #interrupt-cells = <1>;
        #address-cells = <0>;
        interrupt-map = <0 &gica 40
                         1 &gicb 7 2>;
    };
    dev-a { interrupt-parent = <&nexus>; interrupts = <0>; };
    dev-b { interrupt-parent = <&nexus>; interrupts = <1>; };
};
|} in
  let t = T.resolve_phandles (T.of_source ~file:"nx.dts" src) in
  let specs = Devicetree.Interrupts.specs t in
  let for_dev d = List.find (fun s -> s.Devicetree.Interrupts.device = d) specs in
  let a = for_dev "/dev-a" in
  check_str "dev-a routed to gic-a" "/gic-a" a.Devicetree.Interrupts.controller;
  check_bool "dev-a line 40" true (a.Devicetree.Interrupts.cells = [ 40L ]);
  let b = for_dev "/dev-b" in
  check_str "dev-b routed to gic-b" "/gic-b" b.Devicetree.Interrupts.controller;
  check_bool "dev-b spec 7 2" true (b.Devicetree.Interrupts.cells = [ 7L; 2L ])

let test_interrupt_map_mask () =
  (* With a mask of 0x3, specifier 5 matches entry 1 (5 land 3 = 1). *)
  let src = {|
/dts-v1/;
/ {
    gic: gic { interrupt-controller; #interrupt-cells = <1>; };
    nexus: router {
        interrupt-controller;
        #interrupt-cells = <1>;
        #address-cells = <0>;
        interrupt-map-mask = <0x3>;
        interrupt-map = <1 &gic 100>;
    };
    dev { interrupt-parent = <&nexus>; interrupts = <5>; };
};
|} in
  let t = T.resolve_phandles (T.of_source ~file:"nxm.dts" src) in
  (match Devicetree.Interrupts.specs t with
   | [ s ] ->
     check_str "routed" "/gic" s.Devicetree.Interrupts.controller;
     check_bool "line 100" true (s.Devicetree.Interrupts.cells = [ 100L ])
   | specs -> Alcotest.failf "expected one spec, got %d" (List.length specs))

let test_interrupt_map_unmatched () =
  let src = {|
/dts-v1/;
/ {
    gic: gic { interrupt-controller; #interrupt-cells = <1>; };
    nexus: router {
        interrupt-controller;
        #interrupt-cells = <1>;
        #address-cells = <0>;
        interrupt-map = <0 &gic 40>;
    };
    dev { interrupt-parent = <&nexus>; interrupts = <9>; };
};
|} in
  let t = T.resolve_phandles (T.of_source ~file:"nxu.dts" src) in
  try
    ignore (Devicetree.Interrupts.specs t : Devicetree.Interrupts.spec list);
    Alcotest.fail "expected unmatched-entry error"
  with Devicetree.Interrupts.Error (msg, _) ->
    check_bool "mentions no entry" true (Test_util.contains msg "no interrupt-map entry")

let () =
  Alcotest.run "devicetree"
    [
      ( "parsing",
        [
          Alcotest.test_case "running example" `Quick test_parse_running_example;
          Alcotest.test_case "labels" `Quick test_parse_labels;
          Alcotest.test_case "missing include" `Quick test_missing_include;
          Alcotest.test_case "include cycles" `Quick test_include_cycles;
          Alcotest.test_case "include doubling chain" `Quick test_include_doubling;
          Alcotest.test_case "expressions in cells" `Quick test_expressions_in_cells;
          Alcotest.test_case "strings and bytes" `Quick test_strings_and_bytes;
          Alcotest.test_case "/bits/ widths" `Quick test_bits_directive;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "recovery collects all errors" `Quick
            test_parse_partial_collects_all_errors;
          Alcotest.test_case "recovery clean/fatal" `Quick test_parse_partial_clean_and_fatal;
          Alcotest.test_case "recovery missing brace" `Quick test_parse_partial_missing_brace;
          Alcotest.test_case "of_source_diags" `Quick test_of_source_diags;
          Alcotest.test_case "char literals and suffixes" `Quick test_char_literals_and_suffixes;
        ] );
      ( "merge",
        [
          Alcotest.test_case "repeated nodes" `Quick test_merge_repeated_nodes;
          Alcotest.test_case "&label overlay" `Quick test_ref_node_overlay;
          Alcotest.test_case "deletes" `Quick test_delete_node_and_prop;
        ] );
      ( "updates",
        [
          Alcotest.test_case "set/remove prop, add/remove node" `Quick test_tree_updates;
          Alcotest.test_case "phandles" `Quick test_phandle_resolution;
        ] );
      ( "addresses",
        [
          Alcotest.test_case "reg with 2/2 cells" `Quick test_reg_decoding_2_2;
          Alcotest.test_case "reg with 1/0 cells (cpu ids)" `Quick test_reg_decoding_1_0;
          Alcotest.test_case "bad reg stride" `Quick test_reg_bad_multiple;
          Alcotest.test_case "ranges translation" `Quick test_ranges_translation;
          Alcotest.test_case "empty ranges is identity" `Quick test_empty_ranges_identity;
          Alcotest.test_case "no ranges blocks translation" `Quick test_no_ranges_not_translatable;
        ] );
      ( "printer",
        [
          Alcotest.test_case "round trip (running example)" `Quick test_printer_roundtrip;
          Alcotest.test_case "round trip (rich values)" `Quick test_printer_roundtrip_rich;
        ] );
      ( "diff",
        [
          Alcotest.test_case "basics" `Quick test_diff_basics;
          Alcotest.test_case "identity" `Quick test_diff_identity;
          Alcotest.test_case "type-insensitive" `Quick test_diff_type_insensitive;
          Alcotest.test_case "delta effect" `Quick test_diff_shows_delta_effect;
        ] );
      ( "overlays",
        [
          Alcotest.test_case "target by label" `Quick test_overlay_by_label;
          Alcotest.test_case "target by path, new child" `Quick test_overlay_by_path_with_child;
          Alcotest.test_case "errors" `Quick test_overlay_errors;
          Alcotest.test_case "overlay then semantic check" `Quick test_overlay_then_check;
        ] );
      ( "interrupts",
        [
          Alcotest.test_case "parent inheritance" `Quick test_interrupt_inheritance;
          Alcotest.test_case "ancestor fallback" `Quick test_interrupt_controller_ancestor_fallback;
          Alcotest.test_case "interrupts-extended" `Quick test_interrupts_extended;
          Alcotest.test_case "malformed specifier" `Quick test_interrupts_malformed;
          Alcotest.test_case "spec key" `Quick test_spec_key;
          Alcotest.test_case "interrupt-map nexus" `Quick test_interrupt_map_nexus;
          Alcotest.test_case "interrupt-map mask" `Quick test_interrupt_map_mask;
          Alcotest.test_case "interrupt-map unmatched" `Quick test_interrupt_map_unmatched;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_printer_roundtrip;
          QCheck_alcotest.to_alcotest prop_fdt_roundtrip;
          QCheck_alcotest.to_alcotest prop_parser_total;
          QCheck_alcotest.to_alcotest prop_yaml_total;
        ] );
      ( "fdt",
        [
          Alcotest.test_case "round trip" `Quick test_fdt_roundtrip;
          Alcotest.test_case "memreserve" `Quick test_fdt_memreserve;
          Alcotest.test_case "header fields" `Quick test_fdt_header_fields;
          Alcotest.test_case "bad magic" `Quick test_fdt_bad_magic;
        ] );
    ]
