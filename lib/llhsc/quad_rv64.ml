(* A second, larger case study: a quad-core RV64 SBC with two CPU clusters,
   four memory banks, two UARTs, two virtio-mmio devices, a GPIO block and
   virtual network channels, partitioned into three VMs.

   Where the paper's CustomSBC (Listing 1) exercises the minimal shapes,
   this fixture stresses the stack: cluster extraction for Bao, interrupt
   topology through a PLIC, per-bank memory features with full RAM
   partitioning, three-way exclusive allocation, and a ~hundred-product
   feature model. *)

module T = Devicetree.Tree

let core_dts =
  {|
/dts-v1/;

/ {
    #address-cells = <1>;
    #size-cells = <1>;
    compatible = "quad,rv64-sbc";

    cpus {
        #address-cells = <1>;
        #size-cells = <0>;

        cluster0 {
            #address-cells = <1>;
            #size-cells = <0>;
            cpu@0 { device_type = "cpu"; compatible = "riscv"; reg = <0>; };
            cpu@1 { device_type = "cpu"; compatible = "riscv"; reg = <1>; };
        };
        cluster1 {
            #address-cells = <1>;
            #size-cells = <0>;
            cpu@2 { device_type = "cpu"; compatible = "riscv"; reg = <2>; };
            cpu@3 { device_type = "cpu"; compatible = "riscv"; reg = <3>; };
        };
    };

    memory@80000000 { device_type = "memory"; reg = <0x80000000 0x10000000>; };
    memory@90000000 { device_type = "memory"; reg = <0x90000000 0x10000000>; };
    memory@a0000000 { device_type = "memory"; reg = <0xa0000000 0x10000000>; };
    memory@b0000000 { device_type = "memory"; reg = <0xb0000000 0x10000000>; };

    soc {
        #address-cells = <1>;
        #size-cells = <1>;
        ranges;
        interrupt-parent = <&plic>;

        plic: interrupt-controller@c000000 {
            compatible = "riscv,plic0";
            interrupt-controller;
            #interrupt-cells = <1>;
            reg = <0xc000000 0x4000000>;
        };

        uart@10000000 {
            compatible = "ns16550a";
            reg = <0x10000000 0x100>;
            interrupts = <10>;
        };

        uart@10001000 {
            compatible = "ns16550a";
            reg = <0x10001000 0x100>;
            interrupts = <11>;
        };

        virtio@10002000 {
            compatible = "virtio,mmio";
            reg = <0x10002000 0x1000>;
            interrupts = <1>;
        };

        virtio@10003000 {
            compatible = "virtio,mmio";
            reg = <0x10003000 0x1000>;
            interrupts = <2>;
        };

        gpio@10004000 {
            compatible = "quad,gpio";
            reg = <0x10004000 0x1000>;
            interrupts = <3>;
        };
    };
};
|}

let core_tree () = T.of_source ~file:"quad-rv64.dts" core_dts

(* Per-bank memory features, per-CPU features, OR groups throughout: a VM
   may take several CPUs or banks; cross-VM exclusivity is the multi-product
   model's job. *)
let feature_model_src =
  {|
feature abstract QuadRV64 {
    mandatory abstract memory or {
        bank@80000000;
        bank@90000000;
        bank@a0000000;
        bank@b0000000;
    }
    mandatory abstract cpus or {
        cpu@0;
        cpu@1;
        cpu@2;
        cpu@3;
    }
    optional abstract uarts or {
        uart@10000000;
        uart@10001000;
    }
    optional abstract virtio or {
        virtio@10002000;
        virtio@10003000;
    }
    optional gpio;
    optional abstract vnet xor {
        vnet0;
        vnet1;
    }
}
constraint gpio => uart@10000000;
|}

let feature_model () = Featuremodel.Parse.parse feature_model_src

(* Removal deltas per optional hardware node, plus the virtual-network
   additions.  Everything is 32-bit from the start, so no cell-width
   rewrites are needed. *)
let deltas_src =
  {|
delta d-vnet when (vnet0 || vnet1) {
    modifies / {
        vEthernet {
            #address-cells = <1>;
            #size-cells = <1>;
            ranges;
        };
    };
}

delta d-vnet0 after d-vnet when vnet0 {
    adds binding vEthernet {
        vnet0@c0000000 {
            compatible = "veth";
            reg = <0xc0000000 0x10000>;
            id = <0>;
        };
    };
}

delta d-vnet1 after d-vnet when vnet1 {
    adds binding vEthernet {
        vnet1@c0010000 {
            compatible = "veth";
            reg = <0xc0010000 0x10000>;
            id = <1>;
        };
    };
}

delta rm-bank0 when !bank@80000000 { removes memory@80000000; }
delta rm-bank1 when !bank@90000000 { removes memory@90000000; }
delta rm-bank2 when !bank@a0000000 { removes memory@a0000000; }
delta rm-bank3 when !bank@b0000000 { removes memory@b0000000; }
delta rm-cpu0 when !cpu@0 { removes cpu@0; }
delta rm-cpu1 when !cpu@1 { removes cpu@1; }
delta rm-cpu2 when !cpu@2 { removes cpu@2; }
delta rm-cpu3 when !cpu@3 { removes cpu@3; }
delta rm-uart0 when !uart@10000000 { removes uart@10000000; }
delta rm-uart1 when !uart@10001000 { removes uart@10001000; }
delta rm-virtio0 when !virtio@10002000 { removes virtio@10002000; }
delta rm-virtio1 when !virtio@10003000 { removes virtio@10003000; }
delta rm-gpio when !gpio { removes gpio@10004000; }
|}

let deltas () = Delta.Parse.parse ~file:"quad-rv64.deltas" deltas_src

let schemas_src =
  [ {|
$id: memory
select:
  node-name: memory
properties:
  device_type:
    const: memory
  reg:
    minItems: 1
    maxItems: 16
    multipleOf: 2
required: [device_type, reg]
|};
    {|
$id: uart
select:
  compatible: [ns16550a]
properties:
  compatible:
    const: ns16550a
  reg:
    minItems: 1
    maxItems: 1
    multipleOf: 2
required: [compatible, reg, interrupts]
|};
    {|
$id: virtio
select:
  compatible: ["virtio,mmio"]
properties:
  reg:
    minItems: 1
    maxItems: 1
    multipleOf: 2
required: [compatible, reg, interrupts]
|};
    {|
$id: veth
select:
  compatible: [veth]
properties:
  compatible:
    const: veth
  reg:
    minItems: 1
    maxItems: 1
    multipleOf: 2
  id:
    type: cells
required: [compatible, reg, id]
|};
    {|
$id: cpu
select:
  node-name: cpu
properties:
  device_type:
    const: cpu
  compatible:
    enum: [riscv]
  reg:
    minItems: 1
    maxItems: 1
required: [device_type, compatible, reg]
|};
    {|
$id: plic
select:
  compatible: ["riscv,plic0"]
properties:
  reg:
    minItems: 1
    maxItems: 1
    multipleOf: 2
required: [compatible, reg, interrupt-controller, "#interrupt-cells"]
|}
  ]

let schemas_for _tree = List.map Schema.Binding.of_string schemas_src

(* Three fully partitioned VMs. *)
let vm1_features =
  [ "bank@80000000"; "bank@90000000"; "cpu@0"; "cpu@1"; "uart@10000000"; "gpio"; "vnet0" ]

let vm2_features = [ "bank@a0000000"; "cpu@2"; "uart@10001000"; "virtio@10002000"; "vnet1" ]
let vm3_features = [ "bank@b0000000"; "cpu@3"; "virtio@10003000" ]

let exclusive = [ "memory"; "cpus"; "uarts"; "virtio" ]

let run_pipeline ?budget ?(certify = false) ?retry ?inputs_hash ?journal
    ?resume () =
  Pipeline.run ~exclusive ?budget ~certify ?retry ?inputs_hash ?journal
    ?resume ~model:(feature_model ()) ~core:(core_tree ())
    ~deltas:(deltas ()) ~schemas_for
    ~vm_requests:[ vm1_features; vm2_features; vm3_features ]
    ()
