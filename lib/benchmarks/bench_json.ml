(* Machine-readable benchmark output.

   The container has no yojson, so this module carries a small self-contained
   JSON value type with a compact printer and a recursive-descent parser —
   enough to emit BENCH_*.json documents, parse them back (the round-trip the
   test suite checks), and parse the Chrome-trace files Pool.Trace renders
   from the flight recorder. *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

exception Parse_error of string

(* ---------- printing ---------- *)

let escape_to buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

(* Shortest decimal form that still round-trips, with a trailing ".0" forced
   onto integral values so the reader keeps the int/float distinction. *)
let float_repr f =
  if Float.is_nan f || Float.abs f = infinity then "null"
  else if Float.is_integer f && Float.abs f < 1e16 then
    Printf.sprintf "%.1f" f
  else begin
    let s = Printf.sprintf "%.12g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f
  end

let rec print_to buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_repr f)
  | Str s ->
    Buffer.add_char buf '"';
    escape_to buf s;
    Buffer.add_char buf '"'
  | List l ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        print_to buf x)
      l;
    Buffer.add_char buf ']'
  | Obj kvs ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_char buf '"';
        escape_to buf k;
        Buffer.add_string buf "\":";
        print_to buf v)
      kvs;
    Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 1024 in
  print_to buf j;
  Buffer.contents buf

(* ---------- parsing ---------- *)

type cursor = { src : string; mutable pos : int }

let fail cur msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg cur.pos))

let peek cur = if cur.pos < String.length cur.src then Some cur.src.[cur.pos] else None

let advance cur = cur.pos <- cur.pos + 1

let rec skip_ws cur =
  match peek cur with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance cur;
    skip_ws cur
  | _ -> ()

let expect cur c =
  match peek cur with
  | Some c' when c' = c -> advance cur
  | _ -> fail cur (Printf.sprintf "expected '%c'" c)

let literal cur word value =
  let n = String.length word in
  if cur.pos + n <= String.length cur.src
     && String.sub cur.src cur.pos n = word
  then begin
    cur.pos <- cur.pos + n;
    value
  end
  else fail cur (Printf.sprintf "expected %s" word)

let parse_string cur =
  expect cur '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek cur with
    | None -> fail cur "unterminated string"
    | Some '"' -> advance cur
    | Some '\\' ->
      advance cur;
      (match peek cur with
       | Some '"' -> Buffer.add_char buf '"'; advance cur
       | Some '\\' -> Buffer.add_char buf '\\'; advance cur
       | Some '/' -> Buffer.add_char buf '/'; advance cur
       | Some 'n' -> Buffer.add_char buf '\n'; advance cur
       | Some 'r' -> Buffer.add_char buf '\r'; advance cur
       | Some 't' -> Buffer.add_char buf '\t'; advance cur
       | Some 'b' -> Buffer.add_char buf '\b'; advance cur
       | Some 'f' -> Buffer.add_char buf '\012'; advance cur
       | Some 'u' ->
         advance cur;
         if cur.pos + 4 > String.length cur.src then fail cur "bad \\u escape";
         let hex = String.sub cur.src cur.pos 4 in
         let code =
           try int_of_string ("0x" ^ hex)
           with _ -> fail cur "bad \\u escape"
         in
         cur.pos <- cur.pos + 4;
         (* Encode the BMP code point as UTF-8 (we never emit surrogates). *)
         if code < 0x80 then Buffer.add_char buf (Char.chr code)
         else if code < 0x800 then begin
           Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
           Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
         end
         else begin
           Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
           Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
           Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
         end
       | _ -> fail cur "bad escape");
      go ()
    | Some c ->
      Buffer.add_char buf c;
      advance cur;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number cur =
  let start = cur.pos in
  let is_float = ref false in
  let rec go () =
    match peek cur with
    | Some ('0' .. '9' | '-' | '+') ->
      advance cur;
      go ()
    | Some ('.' | 'e' | 'E') ->
      is_float := true;
      advance cur;
      go ()
    | _ -> ()
  in
  go ();
  let s = String.sub cur.src start (cur.pos - start) in
  if !is_float then
    match float_of_string_opt s with
    | Some f -> Float f
    | None -> fail cur "bad number"
  else
    match int_of_string_opt s with
    | Some i -> Int i
    | None ->
      (* Integer overflowing the OCaml int range: keep it as a float. *)
      (match float_of_string_opt s with
       | Some f -> Float f
       | None -> fail cur "bad number")

let rec parse_value cur =
  skip_ws cur;
  match peek cur with
  | None -> fail cur "unexpected end of input"
  | Some 'n' -> literal cur "null" Null
  | Some 't' -> literal cur "true" (Bool true)
  | Some 'f' -> literal cur "false" (Bool false)
  | Some '"' -> Str (parse_string cur)
  | Some '[' ->
    advance cur;
    skip_ws cur;
    if peek cur = Some ']' then begin
      advance cur;
      List []
    end
    else begin
      let rec items acc =
        let v = parse_value cur in
        skip_ws cur;
        match peek cur with
        | Some ',' ->
          advance cur;
          items (v :: acc)
        | Some ']' ->
          advance cur;
          List.rev (v :: acc)
        | _ -> fail cur "expected ',' or ']'"
      in
      List (items [])
    end
  | Some '{' ->
    advance cur;
    skip_ws cur;
    if peek cur = Some '}' then begin
      advance cur;
      Obj []
    end
    else begin
      let rec members acc =
        skip_ws cur;
        let k = parse_string cur in
        skip_ws cur;
        expect cur ':';
        let v = parse_value cur in
        skip_ws cur;
        match peek cur with
        | Some ',' ->
          advance cur;
          members ((k, v) :: acc)
        | Some '}' ->
          advance cur;
          List.rev ((k, v) :: acc)
        | _ -> fail cur "expected ',' or '}'"
      in
      Obj (members [])
    end
  | Some ('-' | '0' .. '9') -> parse_number cur
  | Some c -> fail cur (Printf.sprintf "unexpected character '%c'" c)

let of_string s =
  let cur = { src = s; pos = 0 } in
  let v = parse_value cur in
  skip_ws cur;
  if cur.pos <> String.length s then fail cur "trailing garbage";
  v

(* A stream killed mid-write (a --metrics-json log) ends in a torn line:
   whole lines still count, unparseable ones are skipped. *)
let docs_of_string s =
  match of_string s with
  | j -> [ j ]
  | exception Parse_error _ ->
    List.filter_map
      (fun line ->
        match of_string line with
        | j -> Some j
        | exception Parse_error _ -> None)
      (String.split_on_char '\n' s)

(* ---------- accessors ---------- *)

let member key = function
  | Obj kvs ->
    (try List.assoc key kvs
     with Not_found -> raise (Parse_error ("missing key " ^ key)))
  | _ -> raise (Parse_error ("not an object while looking up " ^ key))

let member_opt key = function
  | Obj kvs -> List.assoc_opt key kvs
  | _ -> raise (Parse_error ("not an object while looking up " ^ key))

let get_int = function
  | Int i -> i
  | j -> raise (Parse_error ("not an int: " ^ to_string j))

let get_float = function
  | Float f -> f
  | Int i -> float_of_int i
  | j -> raise (Parse_error ("not a number: " ^ to_string j))

let get_bool = function
  | Bool b -> b
  | j -> raise (Parse_error ("not a bool: " ^ to_string j))

let get_str = function
  | Str s -> s
  | j -> raise (Parse_error ("not a string: " ^ to_string j))

let get_list = function
  | List l -> l
  | j -> raise (Parse_error ("not a list: " ^ to_string j))

(* ---------- the BENCH_*.json schema ---------- *)

(* v2 added the "profile" document kind (rpb profile, lib/obs) on top of the
   v1 benchmark-results shape; the results schema itself is unchanged, so
   readers keep accepting v1 documents.  v3 adds the full per-repeat sample
   vector ("samples_ns") and the smoke-run flag ("smoke") to each result
   record; both are optional on read, so v1/v2 records — and v3 records mixed
   into the same document — parse with sane defaults (no samples, not a
   smoke run).  The scheduling-policy name ("policy") rides on the same
   additive convention: optional on read, defaulting to "default" (the only
   policy that existed before it was recorded), so the version number does
   not move and existing readers are unchanged. *)
let schema_version = 3
let accepted_schema_versions = [ 1; 2; 3 ]

type worker_stats = {
  worker_id : int;
  tasks_executed : int;
  steals_ok : int;
  steals_failed : int;
  idle_episodes : int;
  max_deque_depth : int;
}

type record = {
  bench : string;
  input : string;
  mode : string;  (* "seq" | "unsafe" | "checked" | "sync" *)
  scale : int;
  threads : int;
  repeats : int;
  mean_ns : float;
  min_ns : float;
  samples_ns : float array;
      (* per-repeat elapsed times in run order (v3); [||] when the emitting
         writer predates v3 *)
  smoke : bool;
      (* one-shot smoke run (registry listing under --json): excluded from
         baseline comparison so it can't masquerade as a trajectory point *)
  policy : string;
      (* scheduling-policy name the measuring pool ran under; "default" when
         the emitting writer predates the field *)
  verified : bool;
  workers : worker_stats list;
}

let workers_of_pool_stats (s : Rpb_pool.Pool.Stats.t) =
  Array.to_list
    (Array.map
       (fun (w : Rpb_pool.Pool.Stats.worker) ->
         {
           worker_id = w.worker_id;
           tasks_executed = w.tasks_executed;
           steals_ok = w.steals_ok;
           steals_failed = w.steals_failed;
           idle_episodes = w.idle_episodes;
           max_deque_depth = w.max_deque_depth;
         })
       s.per_worker)

let worker_to_json w =
  Obj
    [
      ("id", Int w.worker_id);
      ("tasks", Int w.tasks_executed);
      ("steals_ok", Int w.steals_ok);
      ("steals_failed", Int w.steals_failed);
      ("idle", Int w.idle_episodes);
      ("max_deque_depth", Int w.max_deque_depth);
    ]

let worker_of_json j =
  {
    worker_id = get_int (member "id" j);
    tasks_executed = get_int (member "tasks" j);
    steals_ok = get_int (member "steals_ok" j);
    steals_failed = get_int (member "steals_failed" j);
    idle_episodes = get_int (member "idle" j);
    max_deque_depth = get_int (member "max_deque_depth" j);
  }

let record_to_json r =
  Obj
    [
      ("bench", Str r.bench);
      ("input", Str r.input);
      ("mode", Str r.mode);
      ("scale", Int r.scale);
      ("threads", Int r.threads);
      ("repeats", Int r.repeats);
      ("mean_ns", Float r.mean_ns);
      ("min_ns", Float r.min_ns);
      ("samples_ns", List (Array.to_list (Array.map (fun s -> Float s) r.samples_ns)));
      ("smoke", Bool r.smoke);
      ("policy", Str r.policy);
      ("verified", Bool r.verified);
      ("workers", List (List.map worker_to_json r.workers));
    ]

let record_of_json j =
  {
    bench = get_str (member "bench" j);
    input = get_str (member "input" j);
    mode = get_str (member "mode" j);
    scale = get_int (member "scale" j);
    threads = get_int (member "threads" j);
    repeats = get_int (member "repeats" j);
    mean_ns = get_float (member "mean_ns" j);
    min_ns = get_float (member "min_ns" j);
    samples_ns =
      (* Absent before v3: no per-repeat vector was recorded.  Consumers that
         need samples (Baseline.compare) treat [||] as "point estimates
         only" and fall back to the threshold band on mean/min. *)
      (match member_opt "samples_ns" j with
       | None | Some Null -> [||]
       | Some l -> Array.of_list (List.map get_float (get_list l)));
    smoke =
      (match member_opt "smoke" j with
       | None | Some Null -> false
       | Some b -> get_bool b);
    policy =
      (match member_opt "policy" j with
       | None | Some Null -> "default"
       | Some s -> get_str s);
    verified = get_bool (member "verified" j);
    workers = List.map worker_of_json (get_list (member "workers" j));
  }

let doc ~meta records =
  Obj
    [
      ("schema_version", Int schema_version);
      ("meta", Obj meta);
      ("results", List (List.map record_to_json records));
    ]

let records_of_doc j =
  let v = get_int (member "schema_version" j) in
  if not (List.mem v accepted_schema_versions) then
    raise
      (Parse_error
         (Printf.sprintf "unsupported schema_version %d (want <= %d)" v
            schema_version));
  List.map record_of_json (get_list (member "results" j))

let write_doc ~path ~meta records =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_string (doc ~meta records));
      output_char oc '\n')

let read_doc path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      records_of_doc (of_string s))
