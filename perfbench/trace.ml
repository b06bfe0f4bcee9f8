(* Spans recorded from the benchmark side, around calls into each layer's
   public functions.  Spans stay in memory and are written at the end as
   Chrome trace-event JSON (opens in https://ui.perfetto.dev).  A layer's
   self time is its span's duration minus the time its child spans
   cover. *)

type span = {
  id : int;
  parent : int; (* -1 for an operation's root span *)
  op : int; (* operation the span belongs to *)
  name : string;
  start : float; (* seconds since the tracer was created *)
  stop : float;
  words : float; (* Gc.minor_words allocated inside the span *)
}

type t = {
  enabled : bool;
  origin : float;
  mutable spans : span list; (* newest first *)
  mutable stack : int list;
  mutable next_id : int;
  mutable op : int;
}

let create ~enabled =
  { enabled; origin = Unix.gettimeofday (); spans = []; stack = []; next_id = 0; op = 0 }

let span t name f =
  if not t.enabled then f ()
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    t.stack <- id :: t.stack;
    let w0 = Gc.minor_words () in
    let start = Unix.gettimeofday () -. t.origin in
    let finish () =
      let stop = Unix.gettimeofday () -. t.origin in
      t.stack <- List.tl t.stack;
      t.spans <-
        { id; parent; op = t.op; name; start; stop; words = Gc.minor_words () -. w0 }
        :: t.spans
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

(* One operation: a root span, numbered so its layer spans share the id. *)
let operation t name f =
  t.op <- t.op + 1;
  span t name f

(* Per span name: (self seconds, minor words, count), summed over all
   spans.  Root spans are operations, not layers, and are left out. *)
let self_times t =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          ((s.stop -. s.start) +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    t.spans;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      if s.parent >= 0 then begin
        let self = s.stop -. s.start -. Option.value ~default:0. (Hashtbl.find_opt child s.id) in
        let t0, w0, c0 =
          Option.value ~default:(0., 0., 0) (Hashtbl.find_opt by_name s.name)
        in
        Hashtbl.replace by_name s.name (t0 +. self, w0 +. s.words, c0 + 1)
      end)
    t.spans;
  by_name

(* Summed duration of the root (operation) spans. *)
let op_time t =
  List.fold_left
    (fun acc s -> if s.parent < 0 then acc +. (s.stop -. s.start) else acc)
    0. t.spans

(* Chrome trace-event JSON for the spans of the first [max_ops]
   operations; the file stays small enough to open at any run length. *)
let to_chrome ?(max_ops = 25) t =
  let events =
    List.rev t.spans
    |> List.filter (fun (s : span) -> s.op <= max_ops)
    |> List.sort (fun a b -> Float.compare a.start b.start)
    |> List.map (fun (s : span) ->
           Bjson.Obj
             [ ("name", Bjson.Str s.name);
               ("cat", Bjson.Str (if s.parent < 0 then "op" else "layer"));
               ("ph", Bjson.Str "X");
               ("ts", Bjson.Float (s.start *. 1e6));
               ("dur", Bjson.Float ((s.stop -. s.start) *. 1e6));
               ("pid", Bjson.Int 1);
               ("tid", Bjson.Int 1);
               ( "args",
                 Bjson.Obj
                   [ ("op", Bjson.Int s.op);
                     ("id", Bjson.Int s.id);
                     ("parent", Bjson.Int s.parent);
                     ("minor_words", Bjson.Float s.words) ] ) ])
  in
  Bjson.Obj [ ("traceEvents", Bjson.List events); ("displayTimeUnit", Bjson.Str "ms") ]
