(** Parser for delta files:

    {v
    delta d1 after d3 when veth0 {
        adds binding vEthernet { veth0@80000000 { ... }; };
    }
    v}

    Operation bodies are ordinary DTS node bodies (the DeviceTree grammar is
    reused).  Targets are ["/"], bare node names (resolved uniquely at
    application time), or absolute paths. *)

exception Error of string * Devicetree.Loc.t

(** Parse a delta file.  With [validate_refs] (the default), checks that
    delta names are unique and every [after] references a declared delta;
    pass [~validate_refs:false] when assembling a delta set from several
    files and run {!validate} on the concatenation instead. *)
val parse : ?validate_refs:bool -> file:string -> string -> Lang.t list

(** Referential validation of a (possibly multi-file) delta set. *)
val validate : Lang.t list -> unit

(** A delta set spread over files, given as [(file, source)] in order:
    each parsed under its own name, then validated as one set. *)
val parse_files : (string * string) list -> Lang.t list
