(* The codec is Llhsc.Frame; this alias stays because perfbench/replay.ml names it Fleet.Frame. *)
include Llhsc.Frame
