(* In-memory spans recorded from the benchmark's own code around each call
   into a layer of the program.  Off (one load per call) unless [start] or
   [resume] was called; kept in memory and written out once, at exit.

   A span's self time is its duration minus the part its children cover;
   [self_ms] sums that per layer.  Nesting comes from a stack on the calling
   thread; [record] adds a finished span (with an explicit parent) from any
   thread, under a lock. *)

type span = {
  id : int;
  parent : int;  (** [-1] for a root span *)
  layer : string;
  name : string;
  t0 : float;  (** monotonic seconds *)
  t1 : float;
}

let on = ref false
let lock = Mutex.create ()
let spans : span list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []

let start () =
  spans := [];
  next_id := 0;
  stack := [];
  on := true

let stop () = on := false

(* Records again, keeping the spans recorded so far. *)
let resume () = on := true

let fresh_id () =
  Mutex.lock lock;
  let id = !next_id in
  incr next_id;
  Mutex.unlock lock;
  id

let record ?(parent = -1) ?id ~layer ~name ~t0 ~t1 () =
  let id = match id with Some i -> i | None -> fresh_id () in
  Mutex.lock lock;
  spans := { id; parent; layer; name; t0; t1 } :: !spans;
  Mutex.unlock lock;
  id

let with_span layer name f =
  if not !on then f ()
  else begin
    let id = fresh_id () in
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let t0 = Rpb_prim.Timing.now () in
    Fun.protect
      ~finally:(fun () ->
        stack := List.tl !stack;
        ignore
          (record ~parent ~id ~layer ~name ~t0 ~t1:(Rpb_prim.Timing.now ())
             ()))
      f
  end

(* Children of one span may overlap only when they ran on different threads
   (the serve reader threads never nest), so the covered part is the plain
   sum of child durations, capped at the parent's. *)
let self_ms () =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          ((s.t1 -. s.t0)
          +. Option.value (Hashtbl.find_opt child s.parent) ~default:0.))
    !spans;
  let per_layer = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let dur = s.t1 -. s.t0 in
      let covered =
        Float.min dur (Option.value (Hashtbl.find_opt child s.id) ~default:0.)
      in
      Hashtbl.replace per_layer s.layer
        ((dur -. covered) *. 1e3
        +. Option.value (Hashtbl.find_opt per_layer s.layer) ~default:0.))
    !spans;
  per_layer

let count () = List.length !spans

(* Chrome trace-event JSON, one complete ("X") event per span. *)
let write path =
  let module J = Rpb_benchmarks.Bench_json in
  let ev s =
    J.Obj
      [
        ("name", J.Str s.name);
        ("cat", J.Str s.layer);
        ("ph", J.Str "X");
        ("ts", J.Float (s.t0 *. 1e6));
        ("dur", J.Float ((s.t1 -. s.t0) *. 1e6));
        ("pid", J.Int 1);
        ("tid", J.Int 1);
        ("args", J.Obj [ ("id", J.Int s.id); ("parent", J.Int s.parent) ]);
      ]
  in
  let oc = open_out path in
  output_string oc (J.to_string (J.List (List.rev_map ev !spans)));
  output_char oc '\n';
  close_out oc
