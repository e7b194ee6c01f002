(* Telemetry: histograms, spans, the Chrome trace exporter, the
   Prometheus renderer, and their integration with the service
   metrics registry. *)

module T = Core.Telemetry
module Hist = T.Hist
module Span = T.Span
module Chrome = T.Chrome
module Agg = T.Agg
module Prom = T.Prom
module Json = Core.Report.Json
module Metrics = Skope_service.Metrics
module Dispatch = Skope_service.Dispatch

let feq = Alcotest.(check (float 1e-12))

(* --- histogram ----------------------------------------------------- *)

let test_hist_single_sample () =
  let h = Hist.create () in
  Hist.observe h 0.5;
  let s = Hist.snapshot h in
  (* The satellite fix: at n=1 every percentile IS that sample, not a
     bucket approximation of it. *)
  feq "p50 of one sample" 0.5 s.Hist.p50;
  feq "p95 of one sample" 0.5 s.Hist.p95;
  feq "p99 of one sample" 0.5 s.Hist.p99;
  Alcotest.(check int) "count" 1 s.Hist.count;
  feq "sum" 0.5 s.Hist.sum;
  feq "min" 0.5 s.Hist.min;
  feq "max" 0.5 s.Hist.max

let test_hist_small_samples () =
  let h = Hist.create () in
  List.iter (Hist.observe h) [ 0.010; 0.020; 0.030 ];
  let s = Hist.snapshot h in
  feq "p50 of 3" 0.020 s.Hist.p50;
  feq "p99 of 3" 0.030 s.Hist.p99;
  feq "quantile 0" 0.010 (Hist.quantile s 0.0);
  feq "quantile 1" 0.030 (Hist.quantile s 1.0)

let test_hist_percentiles_100 () =
  let h = Hist.create () in
  for i = 1 to 100 do
    Hist.observe h (float_of_int i /. 1e3)
  done;
  let s = Hist.snapshot h in
  feq "p50" 0.050 s.Hist.p50;
  feq "p95" 0.095 s.Hist.p95;
  feq "p99" 0.099 s.Hist.p99

let test_hist_cumulative_and_reset () =
  let h = Hist.create ~bounds:[| 0.001; 0.01; 0.1 |] () in
  List.iter (Hist.observe h) [ 0.0005; 0.005; 0.05; 0.5 ];
  let s = Hist.snapshot h in
  (match Hist.cumulative s with
  | [ (b1, c1); (b2, c2); (b3, c3); (binf, cinf) ] ->
    feq "bound 1" 0.001 b1;
    Alcotest.(check int) "cum 1" 1 c1;
    feq "bound 2" 0.01 b2;
    Alcotest.(check int) "cum 2" 2 c2;
    feq "bound 3" 0.1 b3;
    Alcotest.(check int) "cum 3" 3 c3;
    Alcotest.(check bool) "last bound +Inf" true (binf = infinity);
    Alcotest.(check int) "cum inf = count" 4 cinf
  | l ->
    Alcotest.failf "expected 4 cumulative buckets, got %d" (List.length l));
  Hist.reset h;
  let s = Hist.snapshot h in
  Alcotest.(check int) "count after reset" 0 s.Hist.count;
  feq "p99 after reset" 0. s.Hist.p99

let test_hist_negative_clamped () =
  let h = Hist.create () in
  Hist.observe h (-1.0);
  let s = Hist.snapshot h in
  feq "negative clamped to 0" 0. s.Hist.max

(* --- span counters ------------------------------------------------- *)

let test_counters () =
  Span.reset_counters ();
  Span.count "widgets" 2.;
  Span.count "widgets" 3.;
  Span.count "gadgets" 1.;
  (match List.assoc_opt "widgets" (Span.counters ()) with
  | Some v -> feq "widgets total" 5. v
  | None -> Alcotest.fail "widgets counter missing");
  Span.reset_counters ();
  Alcotest.(check (list (pair string (float 0.))))
    "reset clears" [] (Span.counters ())

(* --- chrome exporter ----------------------------------------------- *)

(* Run [f] with a private Chrome collector installed. *)
let with_chrome f =
  let c = Chrome.create () in
  let sink = Chrome.sink c in
  Span.add_sink sink;
  Fun.protect ~finally:(fun () -> Span.remove_sink sink) (fun () -> f ());
  c

let events_of_trace c =
  match Json.of_string (Chrome.to_json c) with
  | Error msg -> Alcotest.failf "trace is not valid JSON: %s" msg
  | Ok json -> (
    match Json.member "traceEvents" json with
    | Some (Json.List evs) -> evs
    | _ -> Alcotest.fail "traceEvents missing")

let str_field ev key =
  Option.bind (Json.member key ev) Json.to_string_opt
  |> Option.value ~default:"?"

let num_field ev key =
  Option.bind (Json.member key ev) Json.to_float_opt
  |> Option.value ~default:Float.nan

let test_chrome_roundtrip () =
  let c =
    with_chrome (fun () ->
        Span.with_ ~name:"outer" ~attrs:[ ("k", "v\"quoted\"") ] (fun () ->
            Span.with_ ~name:"inner" (fun () -> Span.count "steps" 3.)))
  in
  Alcotest.(check int) "two spans collected" 2 (Chrome.length c);
  let evs = events_of_trace c in
  Alcotest.(check int) "two events" 2 (List.length evs);
  let names = List.map (fun e -> str_field e "name") evs in
  Alcotest.(check bool) "outer present" true (List.mem "outer" names);
  Alcotest.(check bool) "inner present" true (List.mem "inner" names);
  List.iter
    (fun e ->
      Alcotest.(check string) "complete event" "X" (str_field e "ph");
      Alcotest.(check string) "category" "skope" (str_field e "cat"))
    evs;
  (* Nesting: the inner event's [ts, ts+dur] interval sits inside the
     outer's, and its parent_id args entry names the outer span. *)
  let find name = List.find (fun e -> str_field e "name" = name) evs in
  let outer = find "outer" and inner = find "inner" in
  let lo e = num_field e "ts" and hi e = num_field e "ts" +. num_field e "dur" in
  Alcotest.(check bool) "inner starts after outer" true (lo inner >= lo outer);
  Alcotest.(check bool) "inner ends before outer" true (hi inner <= hi outer +. 1e-6);
  let args e = Option.get (Json.member "args" e) in
  Alcotest.(check (option (float 0.)))
    "parent_id links inner to outer"
    (Json.to_float_opt (Option.get (Json.member "span_id" (args outer))))
    (Json.to_float_opt (Option.get (Json.member "parent_id" (args inner))));
  (* Attrs and span counters land in args. *)
  Alcotest.(check string) "attr escaped+recovered" "v\"quoted\""
    (str_field (args outer) "k");
  feq "counter in args" 3. (num_field (args inner) "steps")

let test_chrome_error_span () =
  let c =
    with_chrome (fun () ->
        try Span.with_ ~name:"boom" (fun () -> failwith "no") with
        | Failure _ -> ())
  in
  let evs = events_of_trace c in
  let ev = List.find (fun e -> str_field e "name" = "boom") evs in
  let args = Option.get (Json.member "args" ev) in
  Alcotest.(check string) "error attribute" "true" (str_field args "error")

let test_chrome_stable_names () =
  let run () =
    with_chrome (fun () ->
        let w = Core.Workloads.Registry.find_exn "pedagogical" in
        ignore
          (Core.Pipeline.analyze ~machine:Core.Hw.Machines.bgq ~workload:w
             ~scale:w.Core.Workloads.Registry.default_scale ()))
  in
  let names c =
    events_of_trace c
    |> List.map (fun e -> str_field e "name")
    |> List.sort_uniq compare
  in
  let a = names (run ()) and b = names (run ()) in
  Alcotest.(check (list string)) "span names stable across runs" a b;
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " expected") true (List.mem n a))
    [ "workload_make"; "validate"; "lint"; "bet_build"; "eval"; "hotspot" ]

let test_noop_overhead () =
  (* With no sink installed, with_ must be no more than a closure
     call: run a million of them and insist on a very generous bound
     so the test never flakes on loaded CI.  Earlier suites may have
     left process-global sinks installed (an open dispatcher or a
     router has some); drop them so we measure the disabled fast
     path. *)
  Span.clear_sinks ();
  Alcotest.(check bool) "no sinks installed" false (Span.enabled ());
  let t0 = Unix.gettimeofday () in
  let acc = ref 0 in
  for i = 1 to 1_000_000 do
    acc := Span.with_ ~name:"noop" (fun () -> !acc + i)
  done;
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "1e6 disabled spans in %.3fs (< 2s)" dt)
    true (dt < 2.0)

(* --- aggregator ---------------------------------------------------- *)

let test_agg_folds_phases () =
  let agg = Agg.create () in
  let sink = Agg.sink agg in
  Span.add_sink sink;
  Fun.protect
    ~finally:(fun () -> Span.remove_sink sink)
    (fun () ->
      Span.with_ ~name:"phase_a" (fun () -> ());
      Span.with_ ~name:"phase_a" (fun () -> ());
      Span.with_ ~name:"phase_b" (fun () -> ()));
  let snap = Agg.snapshot agg in
  let count name =
    match List.assoc_opt name snap with
    | Some s -> s.Hist.count
    | None -> 0
  in
  Alcotest.(check int) "phase_a twice" 2 (count "phase_a");
  Alcotest.(check int) "phase_b once" 1 (count "phase_b");
  Agg.reset agg;
  Alcotest.(check int) "reset drops phases" 0 (List.length (Agg.snapshot agg))

(* --- prometheus renderer ------------------------------------------- *)

let test_prom_render () =
  let h = Hist.create ~bounds:[| 0.01; 0.1 |] () in
  Hist.observe h 0.005;
  Hist.observe h 0.05;
  let text =
    Prom.render
      [
        Prom.Counter
          {
            name = "skope_requests_total";
            help = "Requests.";
            values = [ ([ ("kind", "analyze"); ("outcome", "ok") ], 3.) ];
          };
        Prom.Gauge
          { name = "skope_queue_depth"; help = "Depth."; values = [ ([], 0.) ] };
        Prom.Histogram
          {
            name = "skope_phase_duration_seconds";
            help = "Phases.";
            series = [ ([ ("phase", "eval") ], Hist.snapshot h) ];
          };
      ]
  in
  let has needle =
    Alcotest.(check bool)
      (Printf.sprintf "exposition contains %S" needle)
      true
      (let nl = String.length needle and tl = String.length text in
       let rec go i = i + nl <= tl && (String.sub text i nl = needle || go (i + 1)) in
       go 0)
  in
  has "# TYPE skope_requests_total counter";
  has "skope_requests_total{kind=\"analyze\",outcome=\"ok\"} 3\n";
  has "# TYPE skope_queue_depth gauge";
  has "skope_queue_depth 0\n";
  has "# TYPE skope_phase_duration_seconds histogram";
  has "skope_phase_duration_seconds_bucket{phase=\"eval\",le=\"0.01\"} 1\n";
  has "skope_phase_duration_seconds_bucket{phase=\"eval\",le=\"+Inf\"} 2\n";
  has "skope_phase_duration_seconds_count{phase=\"eval\"} 2\n"

(* --- metrics registry ---------------------------------------------- *)

let test_metrics_small_n () =
  let m = Metrics.create () in
  Metrics.observe_latency m 0.042;
  let v = Metrics.view m in
  Alcotest.(check int) "one sample" 1 v.Metrics.latency_count;
  feq "p50 of one" 0.042 v.Metrics.p50;
  feq "p99 of one is the sample" 0.042 v.Metrics.p99;
  Metrics.reset m;
  let v = Metrics.view m in
  Alcotest.(check int) "reset zeroes samples" 0 v.Metrics.latency_count;
  Alcotest.(check int) "reset zeroes requests" 0 v.Metrics.total_requests

let test_metrics_gauges () =
  let m = Metrics.create () in
  let depth = ref 7. in
  Metrics.register_gauge m ~name:"skope_queue_depth" ~help:"Depth." (fun () ->
      !depth);
  let v = Metrics.view m in
  (match List.assoc_opt "skope_queue_depth" v.Metrics.gauges with
  | Some g -> feq "gauge sampled" 7. g
  | None -> Alcotest.fail "gauge missing from view");
  depth := 9.;
  let text = Metrics.prom_metrics m in
  Alcotest.(check bool) "gauge resampled in exposition" true
    (let needle = "skope_queue_depth 9\n" in
     let nl = String.length needle and tl = String.length text in
     let rec go i = i + nl <= tl && (String.sub text i nl = needle || go (i + 1)) in
     go 0)

(* --- structured log ------------------------------------------------ *)

module Log = T.Log

(* Capture log lines for the duration of [f]; restores stderr output
   and the default rate limit afterwards. *)
let with_log_capture f =
  let lines = ref [] in
  Log.set_output (fun l -> lines := l :: !lines);
  Log.set_rate ~burst:0 ~per_s:0.;
  Fun.protect
    ~finally:(fun () ->
      Log.use_stderr ();
      Log.set_rate ~burst:50 ~per_s:10.;
      Log.set_level Log.Info)
    (fun () -> f ());
  List.rev !lines

let test_log_json_valid () =
  let lines =
    with_log_capture (fun () ->
        Log.emit ~level:Log.Warn ~trace_id:"t-1" "fault_injected"
          [
            ("fault", Log.Str "drop\"quoted\"\nline");
            ("seed", Log.I 42);
            ("p", Log.F 0.5);
            ("armed", Log.B true);
          ])
  in
  match lines with
  | [ line ] -> (
    (* The telemetry layer does its own JSON escaping; the report
       layer's parser is the schema referee. *)
    match Json.of_string line with
    | Error msg -> Alcotest.failf "log line is not valid JSON: %s" msg
    | Ok j ->
      Alcotest.(check (option string))
        "level" (Some "warn")
        (Option.bind (Json.member "level" j) Json.to_string_opt);
      Alcotest.(check (option string))
        "event" (Some "fault_injected")
        (Option.bind (Json.member "event" j) Json.to_string_opt);
      Alcotest.(check (option string))
        "trace_id" (Some "t-1")
        (Option.bind (Json.member "trace_id" j) Json.to_string_opt);
      Alcotest.(check bool) "ts present" true (Json.member "ts" j <> None);
      let attrs = Option.get (Json.member "attrs" j) in
      Alcotest.(check (option string))
        "escaped attr survives" (Some "drop\"quoted\"\nline")
        (Option.bind (Json.member "fault" attrs) Json.to_string_opt);
      Alcotest.(check (option int))
        "int attr stays a number" (Some 42)
        (Option.bind (Json.member "seed" attrs) Json.to_int_opt);
      Alcotest.(check bool)
        "bool attr" true
        (Json.member "armed" attrs = Some (Json.Bool true)))
  | l -> Alcotest.failf "expected 1 line, got %d" (List.length l)

let test_log_level_filter () =
  let lines =
    with_log_capture (fun () ->
        Log.set_level Log.Warn;
        Log.emit ~level:Log.Debug "dropped_debug" [];
        Log.emit ~level:Log.Info "dropped_info" [];
        Log.emit ~level:Log.Warn "kept_warn" [];
        Log.emit ~level:Log.Error "kept_error" [])
  in
  Alcotest.(check int) "only warn+error pass" 2 (List.length lines)

let test_log_rate_limit () =
  let lines = ref [] in
  Log.set_output (fun l -> lines := l :: !lines);
  Fun.protect
    ~finally:(fun () ->
      Log.use_stderr ();
      Log.set_rate ~burst:50 ~per_s:10.)
    (fun () ->
      (* Tiny bucket, no refill to speak of: a 100-event storm must
         collapse to ~3 lines, and the next passing line must carry
         the suppressed count. *)
      Log.set_rate ~burst:3 ~per_s:1e-9;
      for _ = 1 to 100 do
        Log.emit "storm" []
      done);
  let n = List.length !lines in
  Alcotest.(check bool) (Printf.sprintf "storm capped (%d lines)" n) true (n <= 4);
  Alcotest.(check bool) "some suppressed counted" true
    (Log.suppressed_total () > 0)

let test_log_levels_roundtrip () =
  List.iter
    (fun l ->
      Alcotest.(check bool)
        (Log.level_label l ^ " round-trips")
        true
        (Log.level_of_string (Log.level_label l) = Some l))
    [ Log.Debug; Log.Info; Log.Warn; Log.Error ]

(* --- flight recorder ----------------------------------------------- *)

module Recorder = T.Recorder

let commit_simple r ?(kind = "analyze") ?(outcome = "ok") ?(duration_ms = 1.)
    trace_id =
  Recorder.begin_request r trace_id;
  Recorder.commit r ~trace_id ~kind ~outcome ~start:0. ~duration_ms ()

let test_recorder_ring_wraps () =
  let r = Recorder.create ~capacity:4 () in
  for i = 1 to 10 do
    commit_simple r (Printf.sprintf "t-%d" i)
  done;
  Alcotest.(check int) "length capped" 4 (Recorder.length r);
  Alcotest.(check int) "capacity" 4 (Recorder.capacity r);
  let ids =
    Recorder.recent ~n:10 r |> List.map (fun x -> x.Recorder.trace_id)
  in
  Alcotest.(check (list string))
    "newest first, oldest evicted"
    [ "t-10"; "t-9"; "t-8"; "t-7" ]
    ids;
  Alcotest.(check bool) "evicted not findable" true
    (Recorder.find r "t-1" = None);
  Alcotest.(check bool) "survivor findable" true
    (Recorder.find r "t-9" <> None);
  Recorder.clear r;
  Alcotest.(check int) "clear empties" 0 (Recorder.length r)

let test_recorder_filters () =
  let r = Recorder.create ~capacity:16 () in
  commit_simple r ~outcome:"ok" ~duration_ms:1. "fast-ok";
  commit_simple r ~outcome:"internal_error" ~duration_ms:2. "slow-err";
  commit_simple r ~outcome:"ok" ~duration_ms:50. "slow-ok";
  let ids sel = List.map (fun x -> x.Recorder.trace_id) sel in
  Alcotest.(check (list string))
    "errors only" [ "slow-err" ]
    (ids (Recorder.recent ~errors_only:true r));
  Alcotest.(check (list string))
    "min duration" [ "slow-ok" ]
    (ids (Recorder.recent ~min_duration_ms:10. r));
  Alcotest.(check (list string))
    "n truncates newest-first" [ "slow-ok"; "slow-err" ]
    (ids (Recorder.recent ~n:2 r))

let test_recorder_sink_groups_spans () =
  let r = Recorder.create () in
  let sink = Recorder.sink r in
  Span.add_sink sink;
  Fun.protect
    ~finally:(fun () -> Span.remove_sink sink)
    (fun () ->
      Recorder.begin_request r "grouped";
      Span.with_context ~attrs:[ ("trace_id", "grouped") ] (fun () ->
          Span.with_ ~name:"outer" (fun () ->
              Span.with_ ~name:"inner" (fun () -> ())));
      (* No begin_request, no collection: unrelated spans (or spans
         for a request that was never begun) are dropped. *)
      Span.with_context ~attrs:[ ("trace_id", "never-begun") ] (fun () ->
          Span.with_ ~name:"stray" (fun () -> ()));
      Recorder.commit r ~trace_id:"grouped" ~kind:"analyze" ~outcome:"ok"
        ~start:0. ~duration_ms:1. ());
  match Recorder.find r "grouped" with
  | None -> Alcotest.fail "committed record not found"
  | Some rec_ ->
    let names = List.map (fun s -> s.Span.name) rec_.Recorder.spans in
    Alcotest.(check bool) "outer collected" true (List.mem "outer" names);
    Alcotest.(check bool) "inner collected" true (List.mem "inner" names);
    Alcotest.(check bool) "stray not collected" false (List.mem "stray" names)

let test_recorder_discard () =
  let r = Recorder.create () in
  Recorder.begin_request r "doomed";
  Recorder.discard r "doomed";
  Alcotest.(check int) "nothing recorded" 0 (Recorder.length r)

(* --- dispatch integration ------------------------------------------ *)

let decode body =
  match Json.of_string body with
  | Ok j -> j
  | Error m -> Alcotest.failf "bad response JSON: %s" m

let contains text needle =
  let nl = String.length needle and tl = String.length text in
  let rec go i = i + nl <= tl && (String.sub text i nl = needle || go (i + 1)) in
  go 0

let test_dispatch_metrics_prom () =
  Support.with_dispatch @@ fun d ->
  ignore
    (Dispatch.handle d
       {|{"kind":"analyze","workload":"pedagogical","machine":"bgq"}|});
  ignore
    (Dispatch.handle d
       {|{"kind":"lint","source":"skeleton p { fn main() { flops(1); } }"}|});
  let resp = decode (Dispatch.handle d {|{"kind":"metrics_prom"}|}) in
  Alcotest.(check (option Alcotest.bool))
    "ok" (Some true)
    (Option.bind (Json.member "ok" resp) (function
      | Json.Bool b -> Some b
      | _ -> None));
  let body =
    Option.bind (Json.member "result" resp) (Json.member "body")
    |> Fun.flip Option.bind Json.to_string_opt
    |> Option.get
  in
  (* The acceptance families: per-phase histograms for at least parse,
     lint, bet_build, eval and report. *)
  List.iter
    (fun phase ->
      Alcotest.(check bool)
        (Printf.sprintf "phase %S exposed" phase)
        true
        (contains body
           (Printf.sprintf "skope_phase_duration_seconds_bucket{phase=\"%s\""
              phase)))
    [ "parse"; "lint"; "bet_build"; "eval"; "report"; "request" ];
  Alcotest.(check bool) "requests counter" true
    (contains body "skope_requests_total{kind=\"analyze\",outcome=\"ok\"} 1");
  Alcotest.(check bool) "build info" true (contains body "skope_build_info{");
  Alcotest.(check bool) "lru gauge" true (contains body "skope_lru_entries");
  Alcotest.(check bool) "latency histogram" true
    (contains body "skope_request_latency_seconds_bucket")

let test_dispatch_version () =
  Support.with_dispatch @@ fun d ->
  let resp = decode (Dispatch.handle d {|{"kind":"version"}|}) in
  let field key =
    Option.bind (Json.member "result" resp) (Json.member key)
    |> Fun.flip Option.bind Json.to_string_opt
  in
  Alcotest.(check (option string))
    "version" (Some Core.Version.version) (field "version");
  Alcotest.(check bool) "git present" true (field "git" <> None);
  Alcotest.(check bool) "describe present" true (field "describe" <> None)

let test_dispatch_phase_stats () =
  Support.with_dispatch @@ fun d ->
  Metrics.reset d.Dispatch.metrics;
  ignore
    (Dispatch.handle d
       {|{"kind":"analyze","workload":"pedagogical","machine":"bgq"}|});
  let v = Metrics.view d.Dispatch.metrics in
  let phase name =
    match List.assoc_opt name v.Metrics.phases with
    | Some s -> s
    | None -> Alcotest.failf "phase %S missing from metrics view" name
  in
  List.iter
    (fun name ->
      let s = phase name in
      Alcotest.(check bool)
        (name ^ " observed at least once")
        true (s.Hist.count >= 1);
      (* Exact small-n percentile: with one sample p99 = p50. *)
      if s.Hist.count = 1 then feq (name ^ " p99=p50 at n=1") s.Hist.p50 s.Hist.p99)
    [ "bet_build"; "eval"; "report"; "request" ]

(* [close] takes a dispatcher's sinks off the process-global bus: the
   spans of requests another dispatcher serves reach its per-phase
   histograms while it is open, and no longer once it is closed. *)
let test_dispatch_close () =
  let body = {|{"kind":"analyze","workload":"pedagogical","machine":"bgq"}|} in
  let serve_elsewhere () =
    Support.with_dispatch (fun other -> ignore (Dispatch.handle other body))
  in
  let d = Dispatch.create () in
  let phases () =
    List.map
      (fun (name, s) -> (name, s.Hist.count))
      (Metrics.view d.Dispatch.metrics).Metrics.phases
  in
  let before = phases () in
  serve_elsewhere ();
  let open_ = phases () in
  Alcotest.(check bool) "open dispatcher sees other requests' spans" true
    (open_ <> before);
  Dispatch.close d;
  serve_elsewhere ();
  Alcotest.(check (list (pair string int)))
    "closed dispatcher's phases unchanged" open_ (phases ())

let suite =
  [
    ( "telemetry.hist",
      [
        Alcotest.test_case "single sample percentiles" `Quick
          test_hist_single_sample;
        Alcotest.test_case "small sample percentiles" `Quick
          test_hist_small_samples;
        Alcotest.test_case "100-sample percentiles" `Quick
          test_hist_percentiles_100;
        Alcotest.test_case "cumulative buckets + reset" `Quick
          test_hist_cumulative_and_reset;
        Alcotest.test_case "negative clamped" `Quick test_hist_negative_clamped;
      ] );
    ( "telemetry.span",
      [
        Alcotest.test_case "counters" `Quick test_counters;
        Alcotest.test_case "no-op overhead" `Quick test_noop_overhead;
      ] );
    ( "telemetry.chrome",
      [
        Alcotest.test_case "round-trip + nesting" `Quick test_chrome_roundtrip;
        Alcotest.test_case "error span" `Quick test_chrome_error_span;
        Alcotest.test_case "stable pipeline span names" `Quick
          test_chrome_stable_names;
      ] );
    ( "telemetry.agg",
      [ Alcotest.test_case "folds phases" `Quick test_agg_folds_phases ] );
    ( "telemetry.prom",
      [ Alcotest.test_case "exposition format" `Quick test_prom_render ] );
    ( "telemetry.metrics",
      [
        Alcotest.test_case "small-n percentiles + reset" `Quick
          test_metrics_small_n;
        Alcotest.test_case "gauges" `Quick test_metrics_gauges;
      ] );
    ( "telemetry.log",
      [
        Alcotest.test_case "line is valid JSON" `Quick test_log_json_valid;
        Alcotest.test_case "level filter" `Quick test_log_level_filter;
        Alcotest.test_case "rate limit" `Quick test_log_rate_limit;
        Alcotest.test_case "level labels round-trip" `Quick
          test_log_levels_roundtrip;
      ] );
    ( "telemetry.recorder",
      [
        Alcotest.test_case "ring wraps" `Quick test_recorder_ring_wraps;
        Alcotest.test_case "recent filters" `Quick test_recorder_filters;
        Alcotest.test_case "sink groups spans" `Quick
          test_recorder_sink_groups_spans;
        Alcotest.test_case "discard" `Quick test_recorder_discard;
      ] );
    ( "telemetry.dispatch",
      [
        Alcotest.test_case "metrics_prom exposition" `Quick
          test_dispatch_metrics_prom;
        Alcotest.test_case "version request" `Quick test_dispatch_version;
        Alcotest.test_case "per-phase stats" `Quick test_dispatch_phase_stats;
        Alcotest.test_case "close detaches sinks" `Quick test_dispatch_close;
      ] );
  ]
