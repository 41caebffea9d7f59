(* The unified `rpb report` dashboard.

   Merges every machine-readable artifact the harness emits — BENCH_*.json
   (benchmark records, schema v1..v3), PROFILE_*.json (work/span metrics),
   CHECK_*.json (differential oracle), FAULT_*.json (fault sweep) and
   compare documents — into one self-contained HTML file: no external
   assets, inline CSS and SVG only, light and dark mode from one set of
   custom properties.

   Chart conventions follow the repo's dashboard style contract: categorical
   series colors are assigned in fixed slot order (at most three per chart),
   all text wears ink tokens (never a series color), lines are 2px with
   ringed >=8px markers, bars are thin with a rounded data end and a square
   baseline, grids are solid hairlines, every chart carries a legend when it
   has two or more series plus a <details> table view, and SVG marks get
   native <title> tooltips. *)

module J = Rpb_benchmarks.Bench_json

type source = { path : string; kind : string }

type artifacts = {
  bench : J.record list;
  profiles : Profile.report list;
  checks : J.json list;
  faults : J.json list;
  compares : J.json list;
  serves : J.json list;
  metrics : J.json list;
  slos : J.json list;
  sources : source list;
  errors : (string * string) list;  (* path, message *)
}

let empty =
  {
    bench = [];
    profiles = [];
    checks = [];
    faults = [];
    compares = [];
    serves = [];
    metrics = [];
    slos = [];
    sources = [];
    errors = [];
  }

let classify_doc j =
  match J.member_opt "kind" j with
  | Some (J.Str k) -> k
  | _ -> "bench"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let add_doc acc j =
  match classify_doc j with
  | "profile" -> { acc with profiles = Profile.of_json j :: acc.profiles }
  | "check" -> { acc with checks = j :: acc.checks }
  | "fault" -> { acc with faults = j :: acc.faults }
  | "compare" -> { acc with compares = j :: acc.compares }
  | "serve" -> { acc with serves = j :: acc.serves }
  | "metrics" -> { acc with metrics = j :: acc.metrics }
  | "slo" -> { acc with slos = j :: acc.slos }
  | _ -> { acc with bench = acc.bench @ J.records_of_doc j }

let add_file acc path =
  match read_file path with
  | exception Sys_error msg -> { acc with errors = (path, msg) :: acc.errors }
  | content -> (
    (* One document, or a JSONL stream (the --metrics-json format:
       snapshots interleaved with slow-request profiles), where each line
       classifies on its own. *)
    match J.docs_of_string content with
    | [] ->
      let msg = "no JSON document or JSONL line" in
      { acc with errors = (path, msg) :: acc.errors }
    | docs ->
      let kind = match docs with [ j ] -> classify_doc j | _ -> "jsonl" in
      let acc = List.fold_left add_doc acc docs in
      { acc with sources = { path; kind } :: acc.sources })

let load_files paths =
  let a = List.fold_left add_file empty paths in
  {
    a with
    profiles = List.rev a.profiles;
    checks = List.rev a.checks;
    faults = List.rev a.faults;
    compares = List.rev a.compares;
    serves = List.rev a.serves;
    metrics = List.rev a.metrics;
    slos = List.rev a.slos;
    sources = List.rev a.sources;
    errors = List.rev a.errors;
  }

(* ------------------------------------------------------------------ *)
(* Derived views of the benchmark records.                             *)

let estimate_ns = Baseline.estimate_ns

(* Speedup curves, Fig. 4-style: for every (bench, input, mode, scale) with
   at least two distinct thread counts, the speedup of each thread count
   relative to the group's baseline — the sequential record of the same
   (bench, input, scale) when one exists, otherwise the group's smallest
   thread count. *)
type curve = {
  curve_bench : string;
  curve_input : string;
  curve_mode : string;
  curve_scale : int;
  base_ns : float;
  base_label : string;  (* "seq" or "1t" *)
  points : (int * float * float) list;  (* threads, time ns, speedup *)
}

let speedup_curves records =
  let live = List.filter (fun (r : J.record) -> not r.J.smoke) records in
  let groups = Hashtbl.create 16 in
  List.iter
    (fun (r : J.record) ->
      if r.J.mode <> "seq" then begin
        let k = (r.J.bench, r.J.input, r.J.mode, r.J.scale) in
        Hashtbl.replace groups k
          (r :: Option.value ~default:[] (Hashtbl.find_opt groups k))
      end)
    live;
  let seq_base bench input scale =
    List.find_opt
      (fun (r : J.record) ->
        r.J.mode = "seq" && r.J.bench = bench && r.J.input = input
        && r.J.scale = scale)
      live
  in
  Hashtbl.fold (fun k rs acc -> (k, rs) :: acc) groups []
  |> List.sort compare
  |> List.filter_map (fun ((bench, input, mode, scale), rs) ->
         (* Last record per thread count wins, matching Baseline. *)
         let by_threads = Hashtbl.create 8 in
         List.iter
           (fun (r : J.record) -> Hashtbl.replace by_threads r.J.threads r)
           (List.rev rs)
         |> ignore;
         let pts =
           Hashtbl.fold (fun t r acc -> (t, r) :: acc) by_threads []
           |> List.sort compare
         in
         if List.length pts < 2 then None
         else begin
           let base_ns, base_label =
             match seq_base bench input scale with
             | Some r -> (estimate_ns r, "seq")
             | None ->
               let _, r = List.hd pts in
               (estimate_ns r, "1t")
           in
           if base_ns <= 0.0 then None
           else
             Some
               {
                 curve_bench = bench;
                 curve_input = input;
                 curve_mode = mode;
                 curve_scale = scale;
                 base_ns;
                 base_label;
                 points =
                   List.map
                     (fun (t, r) ->
                       let ns = estimate_ns r in
                       (t, ns, if ns > 0.0 then base_ns /. ns else 0.0))
                     pts;
               }
         end)

(* Fear-spectrum overheads, Fig. 5-style: checked/unsafe and sync/unsafe
   ratios for every configuration measured in both modes. *)
type overhead = {
  o_bench : string;
  o_input : string;
  o_threads : int;
  o_scale : int;
  o_vs : string;  (* "checked" | "sync" *)
  o_unsafe_ns : float;
  o_other_ns : float;
  o_ratio : float;
}

let overheads records =
  let live = List.filter (fun (r : J.record) -> not r.J.smoke) records in
  let index = Hashtbl.create 32 in
  List.iter
    (fun (r : J.record) ->
      Hashtbl.replace index
        (r.J.bench, r.J.input, r.J.mode, r.J.threads, r.J.scale)
        r)
    live;
  List.concat_map
    (fun (r : J.record) ->
      if r.J.mode <> "unsafe" then []
      else
        let u = estimate_ns r in
        List.filter_map
          (fun vs ->
            match
              Hashtbl.find_opt index
                (r.J.bench, r.J.input, vs, r.J.threads, r.J.scale)
            with
            | Some other when u > 0.0 ->
              let o = estimate_ns other in
              Some
                {
                  o_bench = r.J.bench;
                  o_input = r.J.input;
                  o_threads = r.J.threads;
                  o_scale = r.J.scale;
                  o_vs = vs;
                  o_unsafe_ns = u;
                  o_other_ns = o;
                  o_ratio = o /. u;
                }
            | _ -> None)
          [ "checked"; "sync" ])
    live
  |> List.sort_uniq compare

(* Policy race: configurations measured under two or more scheduling
   policies.  One row per (bench, input, mode, threads, scale), the
   per-policy estimates side by side, the winner being the smallest
   estimate; benchmarks are labelled with their fear tier (worst
   access-pattern safety class from the registry) so the table reads as
   "which policy wins where on the fear spectrum". *)
type race = {
  pr_bench : string;
  pr_tier : string;  (* "F" | "C" | "S" | "?" *)
  pr_input : string;
  pr_mode : string;
  pr_threads : int;
  pr_scale : int;
  pr_times : (string * float) list;  (* policy -> estimate ns, sorted *)
  pr_winner : string;
}

let fear_tier bench =
  match Rpb_benchmarks.Registry.find bench with
  | None -> "?"
  | Some e ->
    let module P = Rpb_core.Pattern in
    let rank = function
      | P.Fearless -> 0
      | P.Comfortable -> 1
      | P.Scared -> 2
    in
    let worst =
      List.fold_left
        (fun acc a ->
          let f = P.safety a in
          if rank f > rank acc then f else acc)
        P.Fearless e.Rpb_benchmarks.Common.patterns
    in
    P.fear_name worst

let policy_races records =
  let live = List.filter (fun (r : J.record) -> not r.J.smoke) records in
  let groups = Hashtbl.create 16 in
  List.iter
    (fun (r : J.record) ->
      let k = (r.J.bench, r.J.input, r.J.mode, r.J.threads, r.J.scale) in
      Hashtbl.replace groups k
        (r :: Option.value ~default:[] (Hashtbl.find_opt groups k)))
    live;
  Hashtbl.fold (fun k rs acc -> (k, rs) :: acc) groups []
  |> List.sort compare
  |> List.filter_map (fun ((bench, input, mode, threads, scale), rs) ->
         (* Last record per policy wins, matching Baseline's merge rule. *)
         let by_policy = Hashtbl.create 8 in
         List.iter
           (fun (r : J.record) -> Hashtbl.replace by_policy r.J.policy r)
           (List.rev rs);
         let times =
           Hashtbl.fold
             (fun p r acc -> (p, estimate_ns r) :: acc)
             by_policy []
           |> List.sort compare
         in
         if List.length times < 2 then None
         else
           let winner, _ =
             List.fold_left
               (fun (wp, wns) (p, ns) ->
                 if ns < wns then (p, ns) else (wp, wns))
               (List.hd times) (List.tl times)
           in
           Some
             {
               pr_bench = bench;
               pr_tier = fear_tier bench;
               pr_input = input;
               pr_mode = mode;
               pr_threads = threads;
               pr_scale = scale;
               pr_times = times;
               pr_winner = winner;
             })

(* ------------------------------------------------------------------ *)
(* HTML helpers.                                                       *)

let html_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let ms ns = Printf.sprintf "%.3f" (ns /. 1e6)

(* Categorical slots 1-3 of the validated reference palette (the only slots
   cleared for all-pairs use), surfaces, inks and the status steps; dark
   values are the documented dark-surface steps, not an automatic flip. *)
let css =
  {css|
:root { color-scheme: light; }
body {
  margin: 0; background: var(--page);
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  color: var(--ink); line-height: 1.45;
}
.viz-root {
  --page: #f9f9f7; --surface-1: #fcfcfb;
  --ink: #0b0b0b; --ink-2: #52514e; --muted: #898781;
  --grid: #e1e0d9; --baseline: #c3c2b7;
  --border: rgba(11,11,11,0.10);
  --series-1: #2a78d6; --series-2: #eb6834; --series-3: #1baf7a;
  --good: #0ca30c; --warning: #fab219; --serious: #ec835a;
  --critical: #d03b3b;
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) .viz-root {
    color-scheme: dark;
    --page: #0d0d0d; --surface-1: #1a1a19;
    --ink: #ffffff; --ink-2: #c3c2b7; --muted: #898781;
    --grid: #2c2c2a; --baseline: #383835;
    --border: rgba(255,255,255,0.10);
    --series-1: #3987e5; --series-2: #d95926; --series-3: #199e70;
  }
}
main { max-width: 1080px; margin: 0 auto; padding: 24px 20px 64px; }
h1 { font-size: 22px; margin: 8px 0 2px; }
h2 { font-size: 17px; margin: 36px 0 4px; }
.sub { color: var(--ink-2); font-size: 13px; margin: 0 0 12px; }
.card {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 14px 16px; margin: 10px 0;
}
.cards { display: flex; flex-wrap: wrap; gap: 10px; }
.cards .card { margin: 0; }
table { border-collapse: collapse; font-size: 13px; width: 100%; }
th {
  text-align: left; color: var(--muted); font-weight: 600;
  border-bottom: 1px solid var(--baseline); padding: 4px 10px 4px 0;
}
td {
  padding: 3px 10px 3px 0; border-bottom: 1px solid var(--grid);
  font-variant-numeric: tabular-nums;
}
td.l { font-variant-numeric: normal; }
.num { text-align: right; }
th.num { text-align: right; }
.tile { min-width: 128px; }
.tile .label { color: var(--ink-2); font-size: 12px; }
.tile .value { font-size: 26px; font-weight: 600; }
.tile .hint { color: var(--muted); font-size: 11px; }
.badge {
  display: inline-block; font-size: 11px; font-weight: 600;
  border-radius: 999px; padding: 1px 8px; border: 1px solid var(--border);
}
.badge::before { margin-right: 4px; }
.badge.ok { color: var(--good); } .badge.ok::before { content: "✓"; }
.badge.bad { color: var(--critical); } .badge.bad::before { content: "✗"; }
.badge.warn { color: var(--serious); } .badge.warn::before { content: "▲"; }
.badge.flat { color: var(--ink-2); } .badge.flat::before { content: "•"; }
.legend { font-size: 12px; color: var(--ink-2); margin: 2px 0 6px; }
.legend .key {
  display: inline-block; width: 14px; height: 3px; border-radius: 2px;
  vertical-align: middle; margin: 0 4px 0 10px;
}
.grid-charts {
  display: grid; gap: 12px;
  grid-template-columns: repeat(auto-fill, minmax(300px, 1fr));
}
details { margin: 6px 0 0; }
summary { color: var(--muted); font-size: 12px; cursor: pointer; }
svg text { fill: var(--muted); font-size: 10px; font-family: inherit; }
svg .t { fill: var(--ink-2); font-size: 11px; }
footer { color: var(--muted); font-size: 12px; margin-top: 40px; }
code { font-size: 12px; }
|css}

let series_var = function
  | 0 -> "var(--series-1)"
  | 1 -> "var(--series-2)"
  | _ -> "var(--series-3)"

(* A small line chart: x thread counts, y values, <=3 series, solid hairline
   grid, 2px lines, r>=4 markers with a 2px surface ring, native <title>
   tooltips per marker. *)
let svg_line_chart ~w ~h ~x_label ~y_max ~series buf =
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let ml = 34 and mr = 10 and mt = 8 and mb = 26 in
  let pw = w - ml - mr and ph = h - mt - mb in
  let xs = List.concat_map (fun (_, pts) -> List.map fst pts) series in
  let x_min = List.fold_left min (List.hd xs) xs in
  let x_max = List.fold_left max (List.hd xs) xs in
  let x_span = max 1 (x_max - x_min) in
  let y_max = if y_max <= 0.0 then 1.0 else y_max in
  let px x = ml + ((x - x_min) * pw / x_span) in
  let py y = mt + ph - int_of_float (y /. y_max *. float_of_int ph) in
  pf {|<svg viewBox="0 0 %d %d" width="%d" height="%d" role="img">|} w h w h;
  (* y grid: ~4 clean divisions *)
  let step =
    let raw = y_max /. 4.0 in
    let mag = 10.0 ** Float.floor (Float.log10 (Float.max raw 1e-9)) in
    let n = raw /. mag in
    mag *. (if n <= 1.0 then 1.0 else if n <= 2.0 then 2.0 else if n <= 5.0 then 5.0 else 10.0)
  in
  let rec grid y =
    if y <= y_max +. 1e-9 then begin
      pf
        {|<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="var(--grid)" stroke-width="1"/>|}
        ml (py y) (w - mr) (py y);
      pf {|<text x="%d" y="%d" text-anchor="end">%g</text>|} (ml - 5)
        (py y + 3) y;
      grid (y +. step)
    end
  in
  grid 0.0;
  (* baseline + x ticks at the measured thread counts *)
  pf
    {|<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="var(--baseline)" stroke-width="1"/>|}
    ml (mt + ph) (w - mr) (mt + ph);
  List.sort_uniq compare xs
  |> List.iter (fun x ->
         pf {|<text x="%d" y="%d" text-anchor="middle">%d</text>|} (px x)
           (mt + ph + 13) x);
  pf {|<text x="%d" y="%d" text-anchor="middle">%s</text>|} (ml + (pw / 2))
    (h - 3) (html_escape x_label);
  List.iteri
    (fun i (name, pts) ->
      let color = series_var i in
      let path =
        String.concat " "
          (List.mapi
             (fun j (x, y, _) ->
               Printf.sprintf "%s%d %d" (if j = 0 then "M" else "L") (px x)
                 (py y))
             (List.map (fun (x, (y, tip)) -> (x, y, tip)) pts))
      in
      pf
        {|<path d="%s" fill="none" stroke="%s" stroke-width="2" stroke-linejoin="round" stroke-linecap="round"/>|}
        path color;
      List.iter
        (fun (x, (y, tip)) ->
          pf
            {|<circle cx="%d" cy="%d" r="4" fill="%s" stroke="var(--surface-1)" stroke-width="2"><title>%s: %s</title></circle>|}
            (px x) (py y) color (html_escape name) (html_escape tip))
        pts)
    series;
  pf "</svg>"

(* A thin horizontal bar from the left edge: square at the baseline, 4px
   rounded data end, value labelled at the tip in ink. *)
let svg_ratio_bar ~w ~ratio ~max_ratio ~color ~tip buf =
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let h = 20 in
  let bar_h = 14 in
  let label_w = 46 in
  let pw = w - label_w in
  let len =
    max 3 (int_of_float (ratio /. max_ratio *. float_of_int (pw - 4)))
  in
  let y0 = (h - bar_h) / 2 in
  let r = 4 in
  pf {|<svg viewBox="0 0 %d %d" width="%d" height="%d" role="img">|} w h w h;
  (* reference line at ratio 1.0 *)
  let x1 = int_of_float (1.0 /. max_ratio *. float_of_int (pw - 4)) in
  pf
    {|<path d="M0 %d h%d a%d %d 0 0 1 %d %d v%d a%d %d 0 0 1 -%d %d h-%d Z" fill="%s"><title>%s</title></path>|}
    y0 (len - r) r r r r (bar_h - (2 * r)) r r r r (len - r) color
    (html_escape tip);
  pf
    {|<line x1="%d" y1="1" x2="%d" y2="%d" stroke="var(--baseline)" stroke-width="1"/>|}
    x1 x1 (h - 1);
  pf {|<text x="%d" y="%d" class="t">%.2fx</text>|} (len + 6) (y0 + bar_h - 3)
    ratio;
  pf "</svg>"

(* ------------------------------------------------------------------ *)
(* Sections.                                                           *)

let section_speedup buf records =
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let curves = speedup_curves records in
  pf "<h2>Speedup curves</h2>";
  pf
    "<p class=\"sub\">Fig.&nbsp;4-style: measured speedup against the \
     group's baseline (sequential run when present, otherwise the smallest \
     thread count), per benchmark &times; input &times; mode.</p>";
  if curves = [] then
    pf
      "<div class=\"card\"><p class=\"sub\">No configuration was measured \
       at two or more thread counts — run <code>rpb bench</code> with \
       several <code>--threads</code> values to populate this \
       section.</p></div>"
  else begin
    pf "<div class=\"grid-charts\">";
    List.iter
      (fun c ->
        pf "<div class=\"card\">";
        pf
          "<div class=\"t\" style=\"font-size:13px;color:var(--ink)\"> \
           %s/%s</div><div class=\"sub\">mode %s, scale %d, baseline %s \
           (%s ms)</div>"
          (html_escape c.curve_bench) (html_escape c.curve_input)
          (html_escape c.curve_mode) c.curve_scale c.base_label
          (ms c.base_ns);
        let pts =
          List.map
            (fun (t, ns, sp) ->
              ( t,
                ( sp,
                  Printf.sprintf "%d threads: %s ms, speedup %.2fx" t
                    (ms ns) sp ) ))
            c.points
        in
        let y_max =
          List.fold_left (fun acc (_, (sp, _)) -> Float.max acc sp) 1.0 pts
        in
        svg_line_chart ~w:300 ~h:170 ~x_label:"threads"
          ~y_max:(Float.max 1.0 (y_max *. 1.15))
          ~series:[ ("speedup", pts) ]
          buf;
        pf
          "<details><summary>table</summary><table><tr><th \
           class=\"num\">threads</th><th class=\"num\">time (ms)</th><th \
           class=\"num\">speedup</th></tr>";
        List.iter
          (fun (t, ns, sp) ->
            pf
              "<tr><td class=\"num\">%d</td><td class=\"num\">%s</td><td \
               class=\"num\">%.2fx</td></tr>"
              t (ms ns) sp)
          c.points;
        pf "</table></details></div>")
      curves;
    pf "</div>"
  end

let section_overhead buf records =
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let os = overheads records in
  pf "<h2>Fear-spectrum overhead</h2>";
  pf
    "<p class=\"sub\">Fig.&nbsp;5-style: run time of the checked and \
     synchronized modes relative to the unsafe switch (1.00x = free). The \
     hairline marks 1x.</p>";
  if os = [] then
    pf
      "<div class=\"card\"><p class=\"sub\">No configuration was measured \
       in both unsafe and checked/sync modes.</p></div>"
  else begin
    let max_ratio =
      Float.max 2.0
        (List.fold_left (fun acc o -> Float.max acc o.o_ratio) 0.0 os)
    in
    pf
      "<div class=\"card\"><table><tr><th>configuration</th><th>vs</th><th \
       class=\"num\">unsafe (ms)</th><th class=\"num\">%s (ms)</th><th \
       style=\"width:45%%\">overhead</th></tr>"
      "mode";
    List.iter
      (fun o ->
        let color =
          if o.o_vs = "checked" then series_var 0 else series_var 1
        in
        pf
          "<tr><td class=\"l\">%s/%s t=%d s=%d</td><td \
           class=\"l\">%s</td><td class=\"num\">%s</td><td \
           class=\"num\">%s</td><td>"
          (html_escape o.o_bench) (html_escape o.o_input) o.o_threads
          o.o_scale (html_escape o.o_vs) (ms o.o_unsafe_ns)
          (ms o.o_other_ns);
        svg_ratio_bar ~w:380 ~ratio:o.o_ratio ~max_ratio ~color
          ~tip:
            (Printf.sprintf "%s/%s: %s %.2fx the unsafe time" o.o_bench
               o.o_input o.o_vs o.o_ratio)
          buf;
        pf "</td></tr>")
      os;
    pf "</table>";
    pf
      "<div class=\"legend\"><span class=\"key\" \
       style=\"background:%s\"></span>checked / unsafe<span class=\"key\" \
       style=\"background:%s\"></span>sync / unsafe</div>"
      (series_var 0) (series_var 1);
    pf "</div>"
  end

let section_profiles buf (profiles : Profile.report list) =
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "<h2>Work / span</h2>";
  pf
    "<p class=\"sub\">Per-benchmark DAG metrics from the flight recorder \
     (<code>rpb profile</code>): work T<sub>1</sub>, span T<sub>∞</sub>, \
     parallelism and the burdened parallelism left after measured steal \
     delays.</p>";
  if profiles = [] then begin
    pf
      "<div class=\"card\"><p class=\"sub\">No PROFILE_*.json artifacts \
       given.</p></div>"
  end
  else begin
    pf
      "<div class=\"card\"><table><tr><th>bench</th><th>mode</th><th \
       class=\"num\">threads</th><th class=\"num\">work (ms)</th><th \
       class=\"num\">span (ms)</th><th class=\"num\">parallelism</th><th \
       class=\"num\">burdened</th><th class=\"num\">tasks</th><th \
       class=\"num\">steals</th><th class=\"num\">dropped</th><th></th></tr>";
    List.iter
      (fun (r : Profile.report) ->
        let m = r.Profile.metrics in
        pf
          "<tr><td class=\"l\">%s/%s</td><td class=\"l\">%s</td><td \
           class=\"num\">%d</td><td class=\"num\">%s</td><td \
           class=\"num\">%s</td><td class=\"num\">%.2f</td><td \
           class=\"num\">%.2f</td><td class=\"num\">%d</td><td \
           class=\"num\">%d</td><td class=\"num\">%d</td><td \
           class=\"l\">%s</td></tr>"
          (html_escape r.Profile.bench)
          (html_escape r.Profile.input)
          (html_escape r.Profile.mode)
          r.Profile.threads
          (ms (float_of_int m.Sp_dag.work_ns))
          (ms (float_of_int m.Sp_dag.span_ns))
          m.Sp_dag.parallelism m.Sp_dag.burdened_parallelism m.Sp_dag.tasks
          m.Sp_dag.steals m.Sp_dag.dropped
          (if r.Profile.verified then
             "<span class=\"badge ok\">verified</span>"
           else "<span class=\"badge bad\">verify failed</span>"))
      profiles;
    pf "</table></div>";
    (* Predicted speedup curves: burdened estimate vs DAG upper bound. *)
    pf "<div class=\"grid-charts\">";
    List.iter
      (fun (r : Profile.report) ->
        let m = r.Profile.metrics in
        let p_max = max 2 r.Profile.threads in
        let curve f label =
          List.init p_max (fun i ->
              let p = i + 1 in
              let v = f p in
              (p, (v, Printf.sprintf "%s at %d threads: %.2fx" label p v)))
        in
        let burdened = curve (Sp_dag.predicted_speedup m) "burdened" in
        let upper =
          curve
            (fun p -> Float.min (float_of_int p) m.Sp_dag.parallelism)
            "upper bound"
        in
        let y_max =
          List.fold_left
            (fun acc (_, (v, _)) -> Float.max acc v)
            1.0 (burdened @ upper)
        in
        pf "<div class=\"card\">";
        pf
          "<div class=\"t\" \
           style=\"font-size:13px;color:var(--ink)\">%s/%s</div><div \
           class=\"sub\">predicted speedup (mode %s)</div>"
          (html_escape r.Profile.bench)
          (html_escape r.Profile.input)
          (html_escape r.Profile.mode);
        svg_line_chart ~w:300 ~h:170 ~x_label:"threads"
          ~y_max:(y_max *. 1.15)
          ~series:[ ("burdened", burdened); ("upper bound", upper) ]
          buf;
        pf
          "<div class=\"legend\"><span class=\"key\" \
           style=\"background:%s\"></span>burdened estimate<span \
           class=\"key\" style=\"background:%s\"></span>DAG upper \
           bound</div>"
          (series_var 0) (series_var 1);
        pf "</div>")
      profiles;
    pf "</div>"
  end

let get_int_opt key j =
  match J.member_opt key j with Some (J.Int i) -> Some i | _ -> None

let get_bool_or key default j =
  match J.member_opt key j with Some (J.Bool b) -> b | _ -> default

let section_checks buf checks =
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "<h2>Correctness: differential oracle</h2>";
  pf
    "<p class=\"sub\">CHECK_*.json: every benchmark under the \
     deterministic sequential executor, its shuffled variant and the \
     work-stealing pool, digests diffed element-wise; plus the shadow-array \
     race-detector self-check.</p>";
  if checks = [] then
    pf
      "<div class=\"card\"><p class=\"sub\">No CHECK_*.json artifacts \
       given.</p></div>"
  else
    List.iter
      (fun j ->
        let ok = get_bool_or "ok" false j in
        let outcomes =
          match J.member_opt "oracle" j with
          | Some (J.List l) -> l
          | _ -> []
        in
        let failing =
          List.filter
            (fun o ->
              not
                (get_bool_or "verified" false o
                 && get_bool_or "equal" false o
                 && J.member_opt "error" o = Some J.Null))
            outcomes
        in
        let shadow = J.member_opt "shadow" j in
        pf "<div class=\"cards\">";
        pf
          "<div class=\"card tile\"><div class=\"label\">oracle \
           verdict</div><div class=\"value\">%s</div><div \
           class=\"hint\">seed %d, %d configurations</div></div>"
          (if ok then "<span class=\"badge ok\">OK</span>"
           else "<span class=\"badge bad\">FAIL</span>")
          (Option.value ~default:0 (get_int_opt "seed" j))
          (List.length outcomes);
        pf
          "<div class=\"card tile\"><div class=\"label\">failing \
           configurations</div><div class=\"value\">%d</div></div>"
          (List.length failing);
        (match shadow with
         | Some s ->
           let races =
             match J.member_opt "races" s with
             | Some (J.List l) -> List.length l
             | _ -> 0
           in
           pf
             "<div class=\"card tile\"><div class=\"label\">shadow \
              races</div><div class=\"value\">%d</div><div \
              class=\"hint\">%d instrumented ops; canary %s</div></div>"
             races
             (Option.value ~default:0 (get_int_opt "ops" s))
             (if get_bool_or "canary_ok" false s then "detected"
              else "MISSED")
         | None -> ());
        pf "</div>")
      checks

let section_faults buf faults =
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "<h2>Robustness: fault-injection sweep</h2>";
  pf
    "<p class=\"sub\">FAULT_*.json: seeded scheduler fault schedules; every \
     run must complete with the clean digest or fail cleanly before its \
     deadline.</p>";
  if faults = [] then
    pf
      "<div class=\"card\"><p class=\"sub\">No FAULT_*.json artifacts \
       given.</p></div>"
  else
    List.iter
      (fun j ->
        let ok = get_bool_or "ok" false j in
        let runs =
          match J.member_opt "runs" j with Some (J.List l) -> l | _ -> []
        in
        let count p = List.length (List.filter p runs) in
        let completed = count (fun r -> get_bool_or "completed" false r) in
        let violations = count (fun r -> not (get_bool_or "ok" false r)) in
        let injected =
          List.fold_left
            (fun acc r -> acc + Option.value ~default:0 (get_int_opt "injected" r))
            0 runs
        in
        pf "<div class=\"cards\">";
        pf
          "<div class=\"card tile\"><div class=\"label\">fault \
           verdict</div><div class=\"value\">%s</div><div class=\"hint\">%d \
           runs, %d injections</div></div>"
          (if ok then "<span class=\"badge ok\">OK</span>"
           else "<span class=\"badge bad\">FAIL</span>")
          (List.length runs) injected;
        pf
          "<div class=\"card tile\"><div class=\"label\">completed with \
           clean digest</div><div class=\"value\">%d</div><div \
           class=\"hint\">%d failed cleanly</div></div>"
          completed
          (List.length runs - completed);
        pf
          "<div class=\"card tile\"><div class=\"label\">contract \
           violations</div><div class=\"value\">%d</div></div>"
          violations;
        pf "</div>")
      faults

let section_policy_race buf records =
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let races = policy_races records in
  (* Rendered only when at least one configuration was measured under two
     or more policies, so reports over ordinary single-policy artifacts are
     unchanged. *)
  if races <> [] then begin
    let policies =
      List.concat_map (fun r -> List.map fst r.pr_times) races
      |> List.sort_uniq compare
    in
    pf "<h2>Policy race</h2>";
    pf
      "<p class=\"sub\">Scheduling policies raced per benchmark \
       (<code>bench/main.exe --policy-race</code>); each cell is the robust \
       time estimate under that policy, the badge marks the winner.  F/C/S \
       is the benchmark's fear tier: fearless, comfortable, scared.</p>";
    pf "<div class=\"card\"><table><tr><th>tier</th><th>configuration</th>";
    List.iter (fun p -> pf "<th class=\"num\">%s (ms)</th>" (html_escape p)) policies;
    pf "<th>winner</th></tr>";
    List.iter
      (fun r ->
        pf "<tr><td class=\"l\">%s</td><td class=\"l\">%s/%s %s t=%d s=%d</td>"
          (html_escape r.pr_tier) (html_escape r.pr_bench)
          (html_escape r.pr_input) (html_escape r.pr_mode) r.pr_threads
          r.pr_scale;
        List.iter
          (fun p ->
            match List.assoc_opt p r.pr_times with
            | Some ns when p = r.pr_winner ->
              pf "<td class=\"num\"><strong>%s</strong></td>" (ms ns)
            | Some ns -> pf "<td class=\"num\">%s</td>" (ms ns)
            | None -> pf "<td class=\"num\">-</td>")
          policies;
        pf "<td class=\"l\"><span class=\"badge ok\">%s</span></td></tr>"
          (html_escape r.pr_winner))
      races;
    pf "</table>";
    (* Per-tier winner counts: the headline "who wins where" view. *)
    let tiers = List.sort_uniq compare (List.map (fun r -> r.pr_tier) races) in
    pf "<div class=\"legend\">winners by fear tier: ";
    List.iter
      (fun tier ->
        let rows = List.filter (fun r -> r.pr_tier = tier) races in
        let wins p =
          List.length (List.filter (fun r -> r.pr_winner = p) rows)
        in
        let best =
          List.fold_left
            (fun (bp, bn) p ->
              let n = wins p in
              if n > bn then (p, n) else (bp, bn))
            ("-", 0) policies
        in
        pf "%s: <strong>%s</strong> (%d/%d)&nbsp; " (html_escape tier)
          (html_escape (fst best)) (snd best) (List.length rows))
      tiers;
    pf "</div></div>"
  end

let section_compares buf compares =
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  if compares <> [] then begin
    pf "<h2>Perf trajectory: baseline comparison</h2>";
    pf
      "<p class=\"sub\">From <code>rpb compare</code>: each configuration \
       against the committed baseline, flagged only when the change clears \
       the noise-widened band and the permutation test agrees.</p>";
    List.iter
      (fun j ->
        let comparisons =
          match J.member_opt "comparisons" j with
          | Some (J.List l) -> l
          | _ -> []
        in
        pf
          "<div class=\"card\"><table><tr><th>configuration</th><th \
           class=\"num\">old (ms)</th><th class=\"num\">new (ms)</th><th \
           class=\"num\">delta</th><th class=\"num\">band</th><th \
           class=\"num\">p</th><th>verdict</th></tr>";
        List.iter
          (fun c ->
            let key = J.member "key" c in
            let verdict =
              match J.member_opt "verdict" c with
              | Some (J.Str s) -> s
              | _ -> "?"
            in
            let badge =
              match verdict with
              | "regressed" -> "bad"
              | "improved" -> "ok"
              | _ -> "flat"
            in
            pf
              "<tr><td class=\"l\">%s/%s %s t=%d s=%d</td><td \
               class=\"num\">%s</td><td class=\"num\">%s</td><td \
               class=\"num\">%+.1f%%</td><td class=\"num\">%.1f%%</td><td \
               class=\"num\">%s</td><td class=\"l\"><span class=\"badge \
               %s\">%s</span></td></tr>"
              (html_escape (J.get_str (J.member "bench" key)))
              (html_escape (J.get_str (J.member "input" key)))
              (html_escape (J.get_str (J.member "mode" key)))
              (J.get_int (J.member "threads" key))
              (J.get_int (J.member "scale" key))
              (ms (J.get_float (J.member "old_est_ns" c)))
              (ms (J.get_float (J.member "new_est_ns" c)))
              (100.0 *. J.get_float (J.member "delta" c))
              (100.0 *. J.get_float (J.member "band" c))
              (match J.member_opt "p_value" c with
               | Some (J.Float p) -> Printf.sprintf "%.3f" p
               | Some (J.Int p) -> Printf.sprintf "%d" p
               | _ -> "-")
              badge (html_escape verdict))
          comparisons;
        pf "</table></div>")
      compares
  end

(* Serving latency: kind="serve" documents from `rpb serve` (role=server)
   and `rpb loadgen` (role=loadgen).  Latency summaries are already in
   milliseconds; counters are a flat object of ints. *)
let serve_role j =
  match J.member_opt "role" j with Some (J.Str r) -> r | _ -> "?"

let serve_counter j name =
  match J.member_opt "counters" j with
  | Some counters -> (
    match J.member_opt name counters with
    | Some (J.Int n) -> n
    | _ -> 0)
  | None -> 0

(* (count, mean, p50, p95, p99, max) out of a latency-summary object. *)
let serve_latency j =
  let field = if serve_role j = "server" then "exec_latency" else "latency" in
  let num l name =
    match J.member_opt name l with
    | Some (J.Float f) -> f
    | Some (J.Int n) -> float_of_int n
    | _ -> 0.0
  in
  match J.member_opt field j with
  | Some l ->
    ( int_of_float (num l "count"), num l "mean_ms", num l "p50_ms",
      num l "p95_ms", num l "p99_ms", num l "max_ms" )
  | None -> (0, 0.0, 0.0, 0.0, 0.0, 0.0)

let section_serves buf serves =
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  if serves <> [] then begin
    pf "<h2>Serving latency</h2>";
    pf
      "<p class=\"sub\">From <code>rpb serve</code> / <code>rpb \
       loadgen</code>: request latency percentiles (nearest-rank over \
       successful replies) and the robustness counters — sheds, stalls, \
       cancellations and losses under load.</p>";
    pf
      "<div class=\"card\"><table><tr><th>role</th><th \
       class=\"num\">n</th><th class=\"num\">mean (ms)</th><th \
       class=\"num\">p50</th><th class=\"num\">p95</th><th \
       class=\"num\">p99</th><th class=\"num\">max</th><th \
       class=\"num\">ok</th><th class=\"num\">shed</th><th \
       class=\"num\">stalled</th><th class=\"num\">cancelled</th><th \
       class=\"num\">failed</th><th class=\"num\">lost</th></tr>";
    List.iter
      (fun j ->
        let role = serve_role j in
        let n, mean, p50, p95, p99, mx = serve_latency j in
        let shed =
          serve_counter j (if role = "server" then "shed" else "shed_replies")
        in
        let badge_class = if serve_counter j "lost" > 0 then "bad" else "ok" in
        pf
          "<tr><td class=\"l\"><span class=\"badge %s\">%s</span></td><td \
           class=\"num\">%d</td><td class=\"num\">%.2f</td><td \
           class=\"num\">%.2f</td><td class=\"num\">%.2f</td><td \
           class=\"num\">%.2f</td><td class=\"num\">%.2f</td><td \
           class=\"num\">%d</td><td class=\"num\">%d</td><td \
           class=\"num\">%d</td><td class=\"num\">%d</td><td \
           class=\"num\">%d</td><td class=\"num\">%d</td></tr>"
          badge_class (html_escape role) n mean p50 p95 p99 mx
          (serve_counter j "ok") shed (serve_counter j "stalled")
          (serve_counter j "cancelled") (serve_counter j "failed")
          (serve_counter j "lost"))
      serves;
    pf "</table></div>"
  end

(* Live metrics: kind="metrics" snapshots (the [stats] verb /
   --metrics-json JSONL format).  A snapshot stream becomes three time
   series over the snapshot sequence number: throughput (delta ok /
   delta wall time between consecutive snapshots), admission-queue
   occupancy (a probe gauge), and the p95 of the exec-latency histogram. *)
let m_float j name =
  match J.member_opt name j with
  | Some (J.Float f) -> f
  | Some (J.Int n) -> float_of_int n
  | _ -> 0.0

let m_counter j name =
  match J.member_opt "counters" j with
  | Some c -> (
    match J.member_opt name c with Some (J.Int n) -> n | _ -> 0)
  | None -> 0

let m_gauge j name =
  match J.member_opt "gauges" j with
  | Some g -> (
    match J.member_opt name g with
    | Some (J.Float f) -> Some f
    | Some (J.Int n) -> Some (float_of_int n)
    | _ -> None)
  | None -> None

let m_hist_field j hist field =
  match J.member_opt "histograms" j with
  | Some (J.Obj _ as hs) -> (
    match J.member_opt hist hs with
    | Some h -> (
      match J.member_opt field h with
      | Some (J.Float f) -> Some f
      | Some (J.Int n) -> Some (float_of_int n)
      | _ -> None)
    | None -> None)
  | _ -> None

(* Stream order: one server run is one [started_s]; within a run, [seq]. *)
let metrics_sorted metrics =
  List.stable_sort
    (fun a b ->
      compare (m_float a "started_s", m_float a "seq")
        (m_float b "started_s", m_float b "seq"))
    metrics

let metrics_series metrics =
  let snaps = Array.of_list (metrics_sorted metrics) in
  let throughput = ref [] and occupancy = ref [] and p95 = ref [] in
  Array.iteri
    (fun i s ->
      let x = i in
      if i > 0 then begin
        let prev = snaps.(i - 1) in
        let dt = m_float s "ts_s" -. m_float prev "ts_s" in
        if dt > 0. then begin
          let d = m_counter s "serve.ok" - m_counter prev "serve.ok" in
          if d >= 0 then
            let r = float_of_int d /. dt in
            throughput :=
              (x, (r, Printf.sprintf "snapshot %d: %.1f ok/s" x r))
              :: !throughput
        end
      end;
      (match m_gauge s "serve.occupancy" with
      | Some o when Float.is_finite o ->
        occupancy :=
          (x, (o, Printf.sprintf "snapshot %d: occupancy %.0f" x o))
          :: !occupancy
      | _ -> ());
      match m_hist_field s "serve.exec_ms" "p95_ms" with
      | Some p when Float.is_finite p && p > 0. ->
        p95 := (x, (p, Printf.sprintf "snapshot %d: p95 %.2f ms" x p)) :: !p95
      | _ -> ())
    snaps;
  (List.rev !throughput, List.rev !occupancy, List.rev !p95)

let section_metrics buf metrics =
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  if metrics <> [] then begin
    pf "<h2>Live metrics</h2>";
    pf
      "<p class=\"sub\">From the serving layer's metrics plane \
       (<code>rpb serve --metrics-json</code> / the <code>stats</code> \
       verb): %d snapshot(s).  Throughput is the delta of the \
       <code>serve.ok</code> counter between consecutive snapshots; \
       latency percentiles interpolate inside log2(ns) histogram \
       buckets.</p>"
      (List.length metrics);
    let throughput, occupancy, p95 = metrics_series metrics in
    let chart title y_label pts =
      if List.length pts >= 2 then begin
        pf "<div class=\"card\">";
        pf
          "<div class=\"t\" style=\"font-size:13px;color:var(--ink)\">%s</div>\
           <div class=\"sub\">%s</div>"
          (html_escape title) (html_escape y_label);
        let y_max =
          List.fold_left (fun acc (_, (y, _)) -> Float.max acc y) 0.0 pts
        in
        svg_line_chart ~w:300 ~h:170 ~x_label:"snapshot"
          ~y_max:(Float.max 1e-9 (y_max *. 1.15))
          ~series:[ (title, pts) ] buf;
        pf "</div>"
      end
    in
    pf "<div class=\"grid-charts\">";
    chart "throughput" "successful replies per second" throughput;
    chart "queue occupancy" "queued + in-flight requests" occupancy;
    chart "exec p95" "milliseconds" p95;
    pf "</div>";
    (* Final-snapshot summary: the counters and histogram totals the CI
       smoke job asserts against. *)
    match List.rev (metrics_sorted metrics) with
    | [] -> ()
    | last :: _ ->
      pf
        "<div class=\"card\"><details><summary>final snapshot (seq \
         %.0f)</summary><table><tr><th>counter</th><th \
         class=\"num\">value</th></tr>"
        (m_float last "seq");
      (match J.member_opt "counters" last with
      | Some (J.Obj fields) ->
        List.iter
          (fun (name, v) ->
            match v with
            | J.Int n ->
              pf
                "<tr><td class=\"l\"><code>%s</code></td><td \
                 class=\"num\">%d</td></tr>"
                (html_escape name) n
            | _ -> ())
          fields
      | _ -> ());
      pf "</table>";
      pf
        "<table><tr><th>histogram</th><th class=\"num\">n</th><th \
         class=\"num\">p50</th><th class=\"num\">p95</th><th \
         class=\"num\">p99</th><th class=\"num\">max (ms)</th></tr>";
      (match J.member_opt "histograms" last with
      | Some (J.Obj fields) ->
        List.iter
          (fun (name, _) ->
            let f field =
              Option.value (m_hist_field last name field) ~default:0.
            in
            pf
              "<tr><td class=\"l\"><code>%s</code></td><td \
               class=\"num\">%.0f</td><td class=\"num\">%.2f</td><td \
               class=\"num\">%.2f</td><td class=\"num\">%.2f</td><td \
               class=\"num\">%.2f</td></tr>"
              (html_escape name) (f "count") (f "p50_ms") (f "p95_ms")
              (f "p99_ms") (f "max_ms"))
          fields
      | _ -> ());
      pf "</table></details></div>"
  end

(* SLO & error budget: kind="slo" documents from `rpb slo --json`.  Tiles
   for the headline verdict, a per-objective table of the final burn
   state, and one fast-burn chart per artifact over the replayed
   snapshots (at most the first three objectives, the chart palette's
   all-pairs limit). *)
let m_str j name =
  match J.member_opt name j with Some (J.Str s) -> s | _ -> "?"

let slo_objectives j =
  match J.member_opt "objectives" j with Some (J.List l) -> l | _ -> []

let slo_series j =
  match J.member_opt "series" j with Some (J.List l) -> l | _ -> []

let level_badge = function
  | "ok" -> "<span class=\"badge ok\">ok</span>"
  | "warn" -> "<span class=\"badge warn\">warn</span>"
  | s -> Printf.sprintf "<span class=\"badge bad\">%s</span>" (html_escape s)

let section_slos buf slos =
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  if slos <> [] then begin
    pf "<h2>SLO &amp; error budget</h2>";
    pf
      "<p class=\"sub\">From <code>rpb slo</code>: multi-window burn rates \
       (windowed error rate over the error budget) replayed against the \
       metrics stream.  Burn 1.0 spends exactly the whole budget if \
       sustained; the page/warn thresholds fire only when both the fast \
       and the slow window agree.</p>";
    List.iter
      (fun j ->
        let worst = m_str j "worst" in
        let violated = get_bool_or "violation" false j in
        pf "<div class=\"cards\">";
        pf
          "<div class=\"card tile\"><div class=\"label\">worst \
           level</div><div class=\"value\">%s</div><div class=\"hint\">%d \
           snapshot(s), %d skipped</div></div>"
          (level_badge worst)
          (Option.value ~default:0 (get_int_opt "snapshots" j))
          (Option.value ~default:0 (get_int_opt "skipped" j));
        pf
          "<div class=\"card tile\"><div class=\"label\">error \
           budget</div><div class=\"value\">%s</div><div \
           class=\"hint\"><code>%s</code></div></div>"
          (if violated then "<span class=\"badge bad\">violated</span>"
           else "<span class=\"badge ok\">within budget</span>")
          (html_escape (m_str j "spec"));
        pf "</div>";
        let objectives = slo_objectives j in
        if objectives <> [] then begin
          pf
            "<div class=\"card\"><table><tr><th>objective</th><th \
             class=\"num\">budget</th><th>level</th><th \
             class=\"num\">fast burn</th><th class=\"num\">slow \
             burn</th><th class=\"num\">budget left</th></tr>";
          List.iter
            (fun o ->
              let final = J.member_opt "final" o in
              let fnum name =
                match final with
                | Some f -> m_float f name
                | None -> 0.
              in
              pf
                "<tr><td class=\"l\"><code>%s</code></td><td \
                 class=\"num\">%.3f</td><td class=\"l\">%s</td><td \
                 class=\"num\">%.2f</td><td class=\"num\">%.2f</td><td \
                 class=\"num\">%.0f%%</td></tr>"
                (html_escape (m_str o "name"))
                (m_float o "budget")
                (level_badge
                   (match final with Some f -> m_str f "level" | None -> "?"))
                (fnum "fast_burn") (fnum "slow_burn")
                (100. *. fnum "budget_remaining"))
            objectives;
          pf "</table></div>"
        end;
        (* Fast-burn time series, one line per objective (first three). *)
        let series = slo_series j in
        let names =
          List.filteri (fun i _ -> i < 3)
            (List.map (fun o -> m_str o "name") objectives)
        in
        if List.length series >= 2 && names <> [] then begin
          let burn_series =
            List.mapi
              (fun oi name ->
                let pts =
                  List.mapi
                    (fun x entry ->
                      let v =
                        match J.member_opt "fast" entry with
                        | Some (J.List l) -> (
                          match List.nth_opt l oi with
                          | Some (J.Float f) -> f
                          | Some (J.Int n) -> float_of_int n
                          | _ -> 0.)
                        | _ -> 0.
                      in
                      ( x,
                        ( v,
                          Printf.sprintf "snapshot %d: fast burn %.2f" x v )
                      ))
                    series
                in
                (name, pts))
              names
          in
          let y_max =
            List.fold_left
              (fun acc (_, pts) ->
                List.fold_left (fun a (_, (v, _)) -> Float.max a v) acc pts)
              1.0 burn_series
          in
          pf "<div class=\"card\">";
          pf
            "<div class=\"t\" style=\"font-size:13px;color:var(--ink)\">fast \
             burn rate</div><div class=\"sub\">per replayed snapshot</div>";
          svg_line_chart ~w:620 ~h:190 ~x_label:"snapshot"
            ~y_max:(y_max *. 1.15) ~series:burn_series buf;
          pf "<div class=\"legend\">";
          List.iteri
            (fun i name ->
              pf "<span class=\"key\" style=\"background:%s\"></span>%s"
                (series_var i) (html_escape name))
            names;
          pf "</div></div>"
        end)
      slos
  end

(* ------------------------------------------------------------------ *)

let to_html a =
  let buf = Buffer.create (1 lsl 16) in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf
    {|<!DOCTYPE html><html lang="en"><head><meta charset="utf-8"><meta name="viewport" content="width=device-width, initial-scale=1"><title>rpb report</title><style>%s</style></head><body class="viz-root"><main>|}
    css;
  pf "<h1>rpb report</h1>";
  pf
    "<p class=\"sub\">Unified dashboard over %d artifact file(s): %d \
     benchmark record(s), %d profile(s), %d check report(s), %d fault \
     report(s), %d comparison(s), %d serve report(s), %d metrics \
     snapshot(s), %d SLO replay(s).</p>"
    (List.length a.sources) (List.length a.bench) (List.length a.profiles)
    (List.length a.checks) (List.length a.faults) (List.length a.compares)
    (List.length a.serves) (List.length a.metrics) (List.length a.slos);
  if a.errors <> [] then begin
    pf "<div class=\"card\">";
    List.iter
      (fun (path, msg) ->
        pf
          "<p class=\"sub\"><span class=\"badge warn\">skipped</span> \
           <code>%s</code>: %s</p>"
          (html_escape path) (html_escape msg))
      a.errors;
    pf "</div>"
  end;
  section_compares buf a.compares;
  section_serves buf a.serves;
  section_metrics buf a.metrics;
  section_slos buf a.slos;
  section_policy_race buf a.bench;
  section_speedup buf a.bench;
  section_overhead buf a.bench;
  section_profiles buf a.profiles;
  section_checks buf a.checks;
  section_faults buf a.faults;
  pf "<footer>sources:<br>";
  List.iter
    (fun s ->
      pf "<code>%s</code> (%s)<br>" (html_escape s.path)
        (html_escape s.kind))
    a.sources;
  pf "</footer></main></body></html>\n";
  Buffer.contents buf

let to_markdown a =
  let buf = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "# rpb report\n\n";
  pf
    "%d artifact file(s): %d benchmark record(s), %d profile(s), %d check \
     report(s), %d fault report(s), %d comparison(s), %d serve report(s), \
     %d metrics snapshot(s), %d SLO replay(s).\n\n"
    (List.length a.sources) (List.length a.bench) (List.length a.profiles)
    (List.length a.checks) (List.length a.faults) (List.length a.compares)
    (List.length a.serves) (List.length a.metrics) (List.length a.slos);
  if a.serves <> [] then begin
    pf "## Serving latency\n\n";
    pf
      "| role | n | mean (ms) | p50 | p95 | p99 | max | ok | shed | stalled \
       | cancelled | failed | lost |\n";
    pf "|---|---|---|---|---|---|---|---|---|---|---|---|---|\n";
    List.iter
      (fun j ->
        let role = serve_role j in
        let n, mean, p50, p95, p99, mx = serve_latency j in
        let shed =
          serve_counter j (if role = "server" then "shed" else "shed_replies")
        in
        pf "| %s | %d | %.2f | %.2f | %.2f | %.2f | %.2f | %d | %d | %d | \
            %d | %d | %d |\n"
          role n mean p50 p95 p99 mx (serve_counter j "ok") shed
          (serve_counter j "stalled")
          (serve_counter j "cancelled")
          (serve_counter j "failed") (serve_counter j "lost"))
      a.serves;
    pf "\n"
  end;
  if a.metrics <> [] then begin
    let sorted = metrics_sorted a.metrics in
    let last = List.hd (List.rev sorted) in
    pf "## Live metrics\n\n";
    pf
      "%d snapshot(s), final seq %.0f, uptime %.1fs: ok=%d shed=%d \
       rejected=%d stalled=%d cancelled=%d failed=%d slow_logged=%d"
      (List.length sorted) (m_float last "seq") (m_float last "uptime_s")
      (m_counter last "serve.ok") (m_counter last "serve.shed")
      (m_counter last "serve.rejected")
      (m_counter last "serve.stalled")
      (m_counter last "serve.cancelled")
      (m_counter last "serve.failed")
      (m_counter last "serve.slow_logged");
    (match
       ( m_hist_field last "serve.exec_ms" "p50_ms",
         m_hist_field last "serve.exec_ms" "p95_ms",
         m_hist_field last "serve.exec_ms" "p99_ms" )
     with
    | Some p50, Some p95, Some p99 ->
      pf "; exec p50/p95/p99 = %.2f/%.2f/%.2f ms" p50 p95 p99
    | _ -> ());
    pf "\n\n"
  end;
  if a.slos <> [] then begin
    pf "## SLO & error budget\n\n";
    List.iter
      (fun j ->
        pf
          "`%s`: worst level **%s**, budget **%s** (%d snapshot(s))\n\n"
          (m_str j "spec") (m_str j "worst")
          (if get_bool_or "violation" false j then "VIOLATED"
           else "within budget")
          (Option.value ~default:0 (get_int_opt "snapshots" j));
        let objectives = slo_objectives j in
        if objectives <> [] then begin
          pf
            "| objective | budget | level | fast burn | slow burn | budget \
             left |\n";
          pf "|---|---|---|---|---|---|\n";
          List.iter
            (fun o ->
              let final = J.member_opt "final" o in
              let fnum name =
                match final with Some f -> m_float f name | None -> 0.
              in
              pf "| %s | %.3f | %s | %.2f | %.2f | %.0f%% |\n"
                (m_str o "name") (m_float o "budget")
                (match final with Some f -> m_str f "level" | None -> "?")
                (fnum "fast_burn") (fnum "slow_burn")
                (100. *. fnum "budget_remaining"))
            objectives;
          pf "\n"
        end)
      a.slos
  end;
  let curves = speedup_curves a.bench in
  if curves <> [] then begin
    pf "## Speedup curves\n\n";
    pf "| configuration | baseline |";
    List.iter (fun (t, _, _) -> pf " %dt |" t) (List.hd curves).points;
    pf "\n|---|---|%s\n"
      (String.concat ""
         (List.map (fun _ -> "---|") (List.hd curves).points));
    List.iter
      (fun c ->
        pf "| %s/%s %s s=%d | %s %sms |" c.curve_bench c.curve_input
          c.curve_mode c.curve_scale c.base_label (ms c.base_ns);
        List.iter (fun (_, _, sp) -> pf " %.2fx |" sp) c.points;
        pf "\n")
      curves;
    pf "\n"
  end;
  let races = policy_races a.bench in
  if races <> [] then begin
    let policies =
      List.concat_map (fun r -> List.map fst r.pr_times) races
      |> List.sort_uniq compare
    in
    pf "## Policy race\n\n";
    pf "| tier | configuration |";
    List.iter (fun p -> pf " %s (ms) |" p) policies;
    pf " winner |\n|---|---|%s---|\n"
      (String.concat "" (List.map (fun _ -> "---|") policies));
    List.iter
      (fun r ->
        pf "| %s | %s/%s %s t=%d s=%d |" r.pr_tier r.pr_bench r.pr_input
          r.pr_mode r.pr_threads r.pr_scale;
        List.iter
          (fun p ->
            match List.assoc_opt p r.pr_times with
            | Some ns when p = r.pr_winner -> pf " **%s** |" (ms ns)
            | Some ns -> pf " %s |" (ms ns)
            | None -> pf " - |")
          policies;
        pf " %s |\n" r.pr_winner)
      races;
    pf "\n"
  end;
  let os = overheads a.bench in
  if os <> [] then begin
    pf "## Fear-spectrum overhead\n\n";
    pf "| configuration | vs | unsafe (ms) | mode (ms) | ratio |\n";
    pf "|---|---|---|---|---|\n";
    List.iter
      (fun o ->
        pf "| %s/%s t=%d s=%d | %s | %s | %s | %.2fx |\n" o.o_bench
          o.o_input o.o_threads o.o_scale o.o_vs (ms o.o_unsafe_ns)
          (ms o.o_other_ns) o.o_ratio)
      os;
    pf "\n"
  end;
  if a.profiles <> [] then begin
    pf "## Work / span\n\n";
    pf
      "| bench | mode | threads | work (ms) | span (ms) | parallelism | \
       burdened | verified |\n";
    pf "|---|---|---|---|---|---|---|---|\n";
    List.iter
      (fun (r : Profile.report) ->
        let m = r.Profile.metrics in
        pf "| %s/%s | %s | %d | %s | %s | %.2f | %.2f | %s |\n"
          r.Profile.bench r.Profile.input r.Profile.mode r.Profile.threads
          (ms (float_of_int m.Sp_dag.work_ns))
          (ms (float_of_int m.Sp_dag.span_ns))
          m.Sp_dag.parallelism m.Sp_dag.burdened_parallelism
          (if r.Profile.verified then "yes" else "NO"))
      a.profiles;
    pf "\n"
  end;
  List.iter
    (fun j ->
      pf "## Differential oracle\n\nverdict: **%s**\n\n"
        (if get_bool_or "ok" false j then "OK" else "FAIL"))
    a.checks;
  List.iter
    (fun j ->
      pf "## Fault sweep\n\nverdict: **%s**\n\n"
        (if get_bool_or "ok" false j then "OK" else "FAIL"))
    a.faults;
  Buffer.contents buf

let write_html ~path a =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_html a))
