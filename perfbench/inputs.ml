(* The benchmark's inputs and their known answers.

   Every input is fixed text: the quad-core RV64 product line of
   [Llhsc.Quad_rv64] (E14) and the paper's CustomSBC board (Listing 1)
   with its cpus.dtsi inlined, plus that board's E5 clash variant.  What
   the seed varies is the order and timing of requests (see
   {!mix_sequence}).  Each distinct input has a committed known answer
   under expected/. *)

module Q = Llhsc.Quad_rv64

let quad_vms = [ Q.vm1_features; Q.vm2_features; Q.vm3_features ]

(* CustomSBC with cpus.dtsi inlined.  [uart0] is the base of the first
   UART's reg; 0x60000000 moves it into the second RAM bank, the clash
   the paper's semantic checker must catch and dt-schema misses (E5). *)
let sbc_dts ~uart0 =
  Printf.sprintf
    {|/dts-v1/;

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
        reg = <0x0 %s 0x0 0x1000>;
    };

    uart1: uart@30000000 {
        compatible = "ns16550a";
        reg = <0x0 0x30000000 0x0 0x1000>;
    };
};

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
    uart0

(* --- the quad fixture on disk ------------------------------------------- *)

let schema_files = List.mapi (fun i src -> (Printf.sprintf "schema-%d.yaml" i, src)) Q.schemas_src

let write_quad_fixture dir =
  Harness.write_file (Filename.concat dir "quad-rv64.dts") Q.core_dts;
  Harness.write_file (Filename.concat dir "quad-rv64.deltas") Q.deltas_src;
  Harness.write_file (Filename.concat dir "quad-rv64.fm") Q.feature_model_src;
  List.iter
    (fun (f, src) -> Harness.write_file (Filename.concat dir (Filename.concat "schemas" f)) src)
    schema_files

let vm_args = List.concat_map (fun fs -> [ "--vm"; String.concat "," fs ]) quad_vms

(* `llhsc pipeline` arguments for the fixture written by
   [write_quad_fixture dir]. *)
let quad_pipeline_args dir =
  let p f = Filename.concat dir f in
  [ "pipeline"; "--core"; p "quad-rv64.dts"; "--deltas"; p "quad-rv64.deltas";
    "--model"; p "quad-rv64.fm"; "--schemas"; p "schemas";
    "--exclusive"; String.concat "," Q.exclusive ]
  @ vm_args

(* --- the served request mix --------------------------------------------- *)

type kind = Check_sbc | Check_quad | Check_clash | Pipeline_quad

let kinds = [ Check_sbc; Check_quad; Check_clash; Pipeline_quad ]

let kind_name = function
  | Check_sbc -> "check_sbc"
  | Check_quad -> "check_quad"
  | Check_clash -> "check_clash"
  | Pipeline_quad -> "pipeline_quad"

(* One block of the mix: 45% small board check, 40% quad check, 5% clash
   variant, 10% full pipeline.  Every block holds the exact shares, so
   the seed moves order and arrival times but never the work mix. *)
let block =
  List.init 9 (fun _ -> Check_sbc)
  @ List.init 8 (fun _ -> Check_quad)
  @ [ Check_clash ]
  @ [ Pipeline_quad; Pipeline_quad ]

let block_size = List.length block

(* Endless sequence of seeded shuffles of [block]. *)
let mix_sequence rng =
  let a = Array.of_list block in
  let i = ref block_size in
  fun () ->
    if !i = block_size then begin
      for k = Array.length a - 1 downto 1 do
        let j = Random.State.int rng (k + 1) in
        let t = a.(k) in
        a.(k) <- a.(j);
        a.(j) <- t
      done;
      i := 0
    end;
    let k = a.(!i) in
    incr i;
    k

let pipeline_body =
  let module J = Llhsc.Json in
  J.to_string
    (J.Obj
       [ ("core", J.Str Q.core_dts);
         ("deltas", J.Str Q.deltas_src);
         ("model", J.Str Q.feature_model_src);
         ("schemas", J.Obj (List.map (fun (f, src) -> (f, J.Str src)) schema_files));
         ("vms", J.List (List.map (fun fs -> J.List (List.map (fun f -> J.Str f) fs)) quad_vms));
         ("exclusive", J.List (List.map (fun f -> J.Str f) Q.exclusive)) ])

let check_dts = function
  | Check_sbc -> sbc_dts ~uart0:"0x20000000"
  | Check_quad -> Q.core_dts
  | Check_clash -> sbc_dts ~uart0:"0x60000000"
  | Pipeline_quad -> invalid_arg "check_dts: a pipeline request has no single DTS"

let http_request =
  let make kind =
    let path, body =
      match kind with
      | Pipeline_quad -> ("/v1/pipeline", pipeline_body)
      | k -> ("/v1/check", check_dts k)
    in
    Printf.sprintf "POST %s HTTP/1.1\r\nHost: bench\r\nContent-Length: %d\r\n\r\n%s" path
      (String.length body) body
  in
  let built = List.map (fun k -> (k, make k)) kinds in
  fun kind -> List.assoc kind built

(* The daemon's job for [kind], exactly as `llhsc serve` materialises it:
   files written into a private directory and the argv it execs there. *)
let job kind =
  match kind with
  | Pipeline_quad ->
    ( [ "pipeline"; "--core"; "core.dts"; "--deltas"; "board.deltas"; "--model"; "board.fm";
        "--schemas"; "schemas" ]
      @ vm_args
      @ [ "--exclusive"; String.concat "," Q.exclusive ],
      [ ("core.dts", Q.core_dts); ("board.deltas", Q.deltas_src);
        ("board.fm", Q.feature_model_src) ]
      @ List.map (fun (f, src) -> (Filename.concat "schemas" f, src)) schema_files )
  | k -> ([ "check"; "request.dts" ], [ ("request.dts", check_dts k) ])

(* --- known answers ------------------------------------------------------- *)

(* Golden files live in expected/ next to the benchmark executable (the
   build copies them there).  A mismatch writes the actual output to
   [actual_dir], so an intended change of report can be reviewed and
   copied over the old answer. *)
type goldens = { dir : string; actual_dir : string; cache : (string, string) Hashtbl.t }

let goldens ~dir ~actual_dir = { dir; actual_dir; cache = Hashtbl.create 8 }

let golden g name =
  match Hashtbl.find_opt g.cache name with
  | Some s -> s
  | None ->
    let s = Harness.read_file (Filename.concat g.dir name) in
    Hashtbl.replace g.cache name s;
    s

let matches g name actual =
  let ok = try golden g name = actual with Sys_error _ -> false in
  if not ok then Harness.write_file (Filename.concat g.actual_dir name) actual;
  ok

let pipeline_golden = "pipeline-quad.txt"
let certify_golden = "pipeline-quad-certify.txt"
let serve_golden kind = Printf.sprintf "serve-%s.json" (kind_name kind)

(* The report and exit code inside a served response's JSON body. *)
let served_verdict body =
  match Llhsc.Json.parse body with
  | Ok j -> (
    match
      ( Option.bind (Llhsc.Json.member "report" j) Llhsc.Json.to_str,
        Option.bind (Llhsc.Json.member "exit" j) Llhsc.Json.to_int )
    with
    | Some report, Some code -> Some (report, code)
    | _ -> None)
  | Error _ -> None
