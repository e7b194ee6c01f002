(* Tests for the arena BET engine: structural invariants of the
   flattened arena, bit-for-bit equivalence with the tree engine
   across the whole bundled fleet, batch and delta re-pricing, the
   v2 cache fingerprint, and wire-level engine selection. *)

module Json = Core.Report.Json
module Service = Skope_service
module Explore = Skope_explore.Explore
module P = Core.Pipeline
module Arena = Core.Bet.Arena
module Designspace = Core.Hw.Designspace
module Machine = Core.Hw.Machine
module Machines = Core.Hw.Machines
module Registry = Core.Workloads.Registry
module Perf = Core.Analysis.Perf
module Roofline = Core.Hw.Roofline
module Hotspot = Core.Analysis.Hotspot

let bgq () = Option.get (Machines.find "bgq")
let sord () = Option.get (Registry.find "sord")

let handle ?(dispatch = Service.Dispatch.create ()) body =
  Service.Dispatch.handle dispatch body

let result_of response =
  match Json.of_string response with
  | Error e -> Alcotest.failf "response is not JSON (%s): %s" e response
  | Ok r -> (
    match (Json.member "ok" r, Json.member "result" r) with
    | Some (Json.Bool true), Some result -> result
    | _ -> Alcotest.failf "expected ok response: %s" response)

let error_of response =
  match Json.of_string response with
  | Error e -> Alcotest.failf "response is not JSON (%s): %s" e response
  | Ok r -> (
    match Json.member "ok" r with
    | Some (Json.Bool true) -> Alcotest.failf "expected error: %s" response
    | _ ->
      let err = Option.get (Json.member "error" r) in
      let str key =
        match Json.member key err with
        | Some (Json.String s) -> s
        | _ -> Alcotest.failf "error without %s: %s" key response
      in
      (str "code", str "message"))

(* Engine-equivalence checks compare the *whole* outcome structurally:
   every Blockstat field (times, work, bound, note) and the full
   hot-spot selection, not just totals. *)
let check_outcomes_equal label (t : P.Prepared.outcome)
    (a : P.Prepared.outcome) =
  Alcotest.(check (float 0.))
    (label ^ ": total time")
    t.P.Prepared.o_total_time a.P.Prepared.o_total_time;
  Alcotest.(check bool)
    (label ^ ": blocks bit-identical")
    true
    (t.P.Prepared.o_blocks = a.P.Prepared.o_blocks);
  Alcotest.(check bool)
    (label ^ ": selection identical")
    true
    (t.P.Prepared.o_selection = a.P.Prepared.o_selection)

(* --- arena structure ----------------------------------------------- *)

let test_arena_invariants () =
  List.iter
    (fun (w : Registry.t) ->
      let prepared =
        P.Prepared.create ~workload:w ~scale:w.Registry.default_scale ()
      in
      let built = P.Prepared.built prepared in
      let a = Arena.of_build built in
      (match Arena.check a with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s: arena invariant: %s" w.Registry.name msg);
      Alcotest.(check int)
        (w.Registry.name ^ ": node count")
        built.Core.Bet.Build.node_count (Arena.node_count a);
      Alcotest.(check int)
        (w.Registry.name ^ ": root is last slot")
        (a.Arena.n - 1) a.Arena.root;
      Alcotest.(check int)
        (w.Registry.name ^ ": pre_order covers every slot")
        a.Arena.n
        (Array.length a.Arena.pre_order))
    Registry.all

let test_dep_masks () =
  let zero = Core.Bet.Work.zero in
  Alcotest.(check int) "zero work depends on nothing" 0
    (Arena.deps_of_work zero);
  let flops = { zero with Core.Bet.Work.flops = 4. } in
  let d = Arena.deps_of_work flops in
  Alcotest.(check bool) "flops -> freq" true (d land Arena.dep_freq <> 0);
  Alcotest.(check bool) "flops -> cpu" true (d land Arena.dep_cpu <> 0);
  Alcotest.(check bool) "pure flops not mem" true (d land Arena.dep_mem = 0);
  let loads =
    { zero with Core.Bet.Work.loads = 8.; Core.Bet.Work.lbytes = 64. }
  in
  let d = Arena.deps_of_work loads in
  Alcotest.(check bool) "loads -> mem" true (d land Arena.dep_mem <> 0);
  Alcotest.(check bool) "loads -> geom" true (d land Arena.dep_geom <> 0);
  Alcotest.(check bool) "pure loads not div" true (d land Arena.dep_div = 0)

(* --- engine equivalence -------------------------------------------- *)

(* The acceptance bar: every bundled workload, on every bundled
   machine, under both cache models, prices bit-for-bit identically
   through the two engines. *)
let test_fleet_identical () =
  List.iter
    (fun (w : Registry.t) ->
      let scale = w.Registry.default_scale in
      let tree = P.Prepared.create ~workload:w ~scale () in
      let arena = P.Prepared.create ~engine:P.Arena ~workload:w ~scale () in
      List.iter
        (fun (m : Machine.t) ->
          List.iter
            (fun cache ->
              let label =
                Fmt.str "%s on %s (%s)" w.Registry.name m.Machine.name
                  (match cache with
                  | Perf.Constant -> "constant"
                  | Perf.Footprint -> "footprint")
              in
              let t = P.Prepared.project ~cache tree m in
              let a = P.Prepared.project ~cache arena m in
              check_outcomes_equal label t a)
            [ Perf.Constant; Perf.Footprint ])
        Machines.all)
    Registry.all

let test_batch_matches_mapped () =
  let w = sord () in
  let arena =
    P.Prepared.create ~engine:P.Arena ~workload:w
      ~scale:w.Registry.default_scale ()
  in
  let axes =
    [
      Designspace.Frequency [ 0.8; 1.6; 3.2 ];
      Designspace.Mem_bandwidth [ 7.; 14.; 28. ];
      Designspace.Vector_width [ 2; 8 ];
    ]
  in
  let machines =
    Explore.grid_points (bgq ()) axes
    |> List.map (fun (p : Designspace.point) -> p.Designspace.p_machine)
    |> Array.of_list
  in
  let batch = P.Prepared.project_batch arena machines in
  Alcotest.(check int) "one outcome per machine" (Array.length machines)
    (Array.length batch);
  Array.iteri
    (fun i m ->
      let solo = P.Prepared.project arena m in
      check_outcomes_equal (Fmt.str "batch point %d" i) solo batch.(i))
    machines

(* A randomized single-axis walk: the delta path must agree with a
   full re-price (and with the tree engine) at every step, whatever
   axis moved last. *)
let test_delta_matches_full () =
  let w = sord () in
  let scale = w.Registry.default_scale in
  let tree = P.Prepared.create ~workload:w ~scale () in
  let arena = P.Prepared.create ~engine:P.Arena ~workload:w ~scale () in
  let rng = Random.State.make [| 42 |] in
  let step (m : Machine.t) =
    let pick l = List.nth l (Random.State.int rng (List.length l)) in
    match Random.State.int rng 6 with
    | 0 -> { m with Machine.freq_ghz = pick [ 0.8; 1.2; 1.6; 3.2 ] }
    | 1 -> { m with Machine.issue_width = pick [ 1.; 2.; 4.; 8. ] }
    | 2 -> { m with Machine.mem_bw_gbs = pick [ 7.; 14.; 28.; 56. ] }
    | 3 -> { m with Machine.vector_width = List.nth [ 1; 2; 4; 8 ]
                      (Random.State.int rng 4) }
    | 4 -> { m with Machine.mem_latency_cycles = pick [ 40.; 107.; 214. ] }
    | _ -> { m with Machine.div_latency = pick [ 10.; 32.; 69. ] }
  in
  let m = ref (bgq ()) in
  let prev = ref (P.Prepared.project arena !m) in
  for i = 1 to 40 do
    m := step !m;
    let full = P.Prepared.project arena !m in
    let delta = P.Prepared.project_delta ~prev:!prev arena !m in
    check_outcomes_equal (Fmt.str "walk step %d (full vs delta)" i) full delta;
    check_outcomes_equal
      (Fmt.str "walk step %d (tree vs delta)" i)
      (P.Prepared.project tree !m)
      delta;
    prev := delta
  done

(* The 4^5 = 1024-point grid, priced by the arena engine on a 4-domain
   pool with per-chunk delta chains, must reproduce the sequential
   tree walk exactly. *)
let test_grid_pool_equivalence () =
  let w = sord () in
  let scale = 0.1 in
  let axes =
    [
      Designspace.Frequency [ 0.8; 1.2; 1.6; 3.2 ];
      Designspace.Issue_width [ 1.; 2.; 4.; 8. ];
      Designspace.Mem_bandwidth [ 7.; 14.; 28.; 56. ];
      Designspace.Vector_width [ 1; 2; 4; 8 ];
      Designspace.Mem_latency [ 40.; 80.; 160.; 320. ];
    ]
  in
  let pts = Explore.grid_points (bgq ()) axes in
  Alcotest.(check int) "1024 points" 1024 (List.length pts);
  let tree = P.Prepared.create ~workload:w ~scale () in
  let arena = P.Prepared.create ~engine:P.Arena ~workload:w ~scale () in
  let rt = Explore.evaluate ~jobs:1 tree pts in
  let ra = Explore.evaluate ~jobs:4 arena pts in
  List.iter2
    (fun (a : Explore.point) (b : Explore.point) ->
      Alcotest.(check string) "grid order" a.Explore.tag b.Explore.tag;
      Alcotest.(check (float 0.))
        (a.Explore.tag ^ " time") a.Explore.time b.Explore.time;
      Alcotest.(check bool)
        (a.Explore.tag ^ " blocks")
        true
        (a.Explore.outcome.P.Prepared.o_blocks
        = b.Explore.outcome.P.Prepared.o_blocks))
    rt.Explore.points ra.Explore.points;
  Alcotest.(check (list string))
    "same pareto"
    (List.map (fun (p : Explore.point) -> p.Explore.tag) rt.Explore.pareto)
    (List.map (fun (p : Explore.point) -> p.Explore.tag) ra.Explore.pareto)

(* --- fingerprint coverage ------------------------------------------ *)

(* Any two requests differing in an evaluation-affecting field must
   get distinct fingerprints: every machine parameter (including each
   cache-level field), scale, criteria, top and engine. *)
let test_fingerprint_covers_schema () =
  let base = bgq () in
  let fp ?(workload = "sord") ?(machine = base) ?(scale = 1.0)
      ?(criteria = Hotspot.default_criteria) ?(top = 10) ?(engine = "tree") ()
      =
    Service.Fingerprint.of_query ~workload ~machine ~scale ~criteria ~top
      ~engine
  in
  let l1 = base.Machine.l1 and l2 = base.Machine.l2 in
  let variants =
    [
      ("base", fp ());
      ("workload", fp ~workload:"srad" ());
      ("scale", fp ~scale:2.0 ());
      ("top", fp ~top:5 ());
      ( "coverage",
        fp ~criteria:{ Hotspot.default_criteria with time_coverage = 0.5 } ()
      );
      ( "leanness",
        fp ~criteria:{ Hotspot.default_criteria with code_leanness = 0.2 } ()
      );
      ("engine", fp ~engine:"arena" ());
      ("freq", fp ~machine:{ base with Machine.freq_ghz = 9.9 } ());
      ("issue", fp ~machine:{ base with Machine.issue_width = 9. } ());
      ("vec", fp ~machine:{ base with Machine.vector_width = 16 } ());
      ("fma", fp ~machine:{ base with Machine.fma = not base.Machine.fma } ());
      ( "flop_issue",
        fp ~machine:{ base with Machine.flop_issue_per_cycle = 9. } () );
      ("div", fp ~machine:{ base with Machine.div_latency = 99. } ());
      ("vec_eff", fp ~machine:{ base with Machine.vec_efficiency = 0.123 } ());
      ("mem_lat", fp ~machine:{ base with Machine.mem_latency_cycles = 9. } ());
      ("mem_bw", fp ~machine:{ base with Machine.mem_bw_gbs = 9. } ());
      ("mlp", fp ~machine:{ base with Machine.mlp = 9. } ());
      ( "l1_size",
        fp
          ~machine:
            { base with Machine.l1 = { l1 with Machine.size_bytes = 123 } }
          () );
      ( "l1_line",
        fp
          ~machine:
            { base with Machine.l1 = { l1 with Machine.line_bytes = 123 } }
          () );
      ( "l1_assoc",
        fp ~machine:{ base with Machine.l1 = { l1 with Machine.assoc = 3 } } ()
      );
      ( "l1_lat",
        fp
          ~machine:
            { base with Machine.l1 = { l1 with Machine.latency_cycles = 9. } }
          () );
      ( "l2_size",
        fp
          ~machine:
            { base with Machine.l2 = { l2 with Machine.size_bytes = 123 } }
          () );
      ( "l2_line",
        fp
          ~machine:
            { base with Machine.l2 = { l2 with Machine.line_bytes = 123 } }
          () );
      ( "l2_lat",
        fp
          ~machine:
            { base with Machine.l2 = { l2 with Machine.latency_cycles = 9. } }
          () );
    ]
  in
  let digests = List.map snd variants in
  Alcotest.(check int)
    "every evaluation-affecting field perturbs the fingerprint"
    (List.length variants)
    (List.length (List.sort_uniq compare digests))

(* --- wire-level engine selection ----------------------------------- *)

let explore_body engine =
  match engine with
  | None ->
    {|{"kind":"explore","workload":"sord","machine":"bgq","axes":[{"axis":"bw","values":[7,14]},{"axis":"freq","values":[0.8,1.6]}]}|}
  | Some e ->
    Printf.sprintf
      {|{"kind":"explore","workload":"sord","machine":"bgq","axes":[{"axis":"bw","values":[7,14]},{"axis":"freq","values":[0.8,1.6]}],"engine":%S}|}
      e

let points_of result =
  match Json.member "points" result with
  | Some (Json.List ps) -> ps
  | _ -> Alcotest.failf "no points in %s" (Json.to_string result)

let test_engine_parse () =
  (match Service.Protocol.parse_request (explore_body (Some "arena")) with
  | Ok (Service.Protocol.Explore (q, _), _) ->
    Alcotest.(check bool) "engine parsed" true
      (q.Service.Protocol.engine = Some P.Arena)
  | _ -> Alcotest.fail "explore with engine did not parse");
  (match Service.Protocol.parse_request (explore_body None) with
  | Ok (Service.Protocol.Explore (q, _), _) ->
    Alcotest.(check bool) "engine defaults to None" true
      (q.Service.Protocol.engine = None)
  | _ -> Alcotest.fail "explore without engine did not parse");
  (* typed builder round trip *)
  let module A = Service.Service_api in
  match
    Service.Protocol.parse_request
      (A.to_body
         (A.explore
            ~opts:{ A.default_query_opts with A.engine = Some "arena" }
            ~workload:"sord" ~machine:"bgq"
            ~axes:[ ("bw", [ 7.; 14. ]) ]
            ()))
  with
  | Ok (Service.Protocol.Explore (q, _), _) ->
    Alcotest.(check bool) "builder carries engine" true
      (q.Service.Protocol.engine = Some P.Arena)
  | _ -> Alcotest.fail "service_api engine did not round trip"

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let test_engine_rejected () =
  let code, msg = error_of (handle (explore_body (Some "warp"))) in
  Alcotest.(check string) "unknown engine" "invalid_request" code;
  Alcotest.(check bool) ("names the engine: " ^ msg) true
    (contains msg "warp" && contains msg "arena")

let test_engine_echoed () =
  let result = result_of (handle (explore_body (Some "arena"))) in
  Alcotest.(check bool) "explore echoes engine" true
    (Json.member "engine" result = Some (Json.String "arena"));
  let default = result_of (handle (explore_body None)) in
  Alcotest.(check bool) "default engine is tree" true
    (Json.member "engine" default = Some (Json.String "tree"));
  let sweep =
    result_of
      (handle
         {|{"kind":"sweep","workload":"sord","machine":"bgq","axis":"bw","values":[7,14],"engine":"arena"}|})
  in
  Alcotest.(check bool) "sweep echoes engine" true
    (Json.member "engine" sweep = Some (Json.String "arena"))

let test_engine_wire_identity () =
  (* Tree and arena responses differ only in the echoed engine: the
     point lists are byte-identical. *)
  let pts engine =
    List.map Json.to_string
      (points_of (result_of (handle (explore_body (Some engine)))))
  in
  Alcotest.(check (list string)) "points byte-identical" (pts "tree")
    (pts "arena")

let test_capabilities_engines () =
  let result = result_of (handle {|{"kind":"capabilities"}|}) in
  match Json.member "bet_engines" result with
  | Some (Json.List l) ->
    Alcotest.(check (list string))
      "advertised engines" [ "tree"; "arena" ]
      (List.filter_map (function Json.String s -> Some s | _ -> None) l)
  | _ -> Alcotest.fail "capabilities missing bet_engines"

(* --- prepared-BET reuse across requests ------------------------------ *)

let analyze_body ~workload ~machine ~engine =
  Printf.sprintf
    {|{"kind":"analyze","workload":%S,"machine":%S,"engine":%S,"trace":{"id":"t-prep"}}|}
    workload machine engine

(* An analyze priced on a prepared handle left behind by an earlier
   request (same workload, other machine) replies with exactly the
   bytes a fresh dispatcher computes from scratch, on every workload,
   machine and engine. *)
let test_warm_prefix_identity () =
  List.iter
    (fun (w : Registry.t) ->
      List.iter
        (fun engine ->
          List.iter
            (fun (machine, other) ->
              let body = analyze_body ~workload:w.Registry.name ~engine in
              let warm = Service.Dispatch.create () in
              ignore (handle ~dispatch:warm (body ~machine:other));
              let reused = handle ~dispatch:warm (body ~machine) in
              let fresh = handle (body ~machine) in
              Alcotest.(check string)
                (Printf.sprintf "%s/%s/%s" w.Registry.name machine engine)
                fresh reused)
            [ ("bgq", "xeon"); ("xeon", "bgq") ])
        [ "tree"; "arena" ])
    Registry.all

(* The same for a fan-out: a sweep and an explore (points and pareto)
   whose prepared handle comes from an earlier analyze. *)
let test_warm_prefix_fanout_identity () =
  let check label body =
    let warm = Service.Dispatch.create () in
    ignore
      (handle ~dispatch:warm
         (analyze_body ~workload:"sord" ~machine:"xeon" ~engine:"arena"));
    ignore
      (handle ~dispatch:warm
         (analyze_body ~workload:"sord" ~machine:"xeon" ~engine:"tree"));
    let reused = handle ~dispatch:warm body in
    Alcotest.(check string) label (handle body) reused;
    match Json.member "pareto" (result_of reused) with
    | None | Some (Json.List (_ :: _)) -> ()
    | Some _ -> Alcotest.failf "%s: empty pareto" label
  in
  check "sweep"
    {|{"kind":"sweep","workload":"sord","machine":"bgq","axis":"bw","values":[7,14,28],"trace":{"id":"t-prep"}}|};
  check "explore"
    {|{"kind":"explore","workload":"sord","machine":"bgq","axes":[{"axis":"bw","values":[7,14]},{"axis":"freq","values":[0.8,1.6]}],"engine":"arena","trace":{"id":"t-prep"}}|}

let suite =
  [
    ( "arena.structure",
      [
        Alcotest.test_case "invariants over the fleet" `Quick
          test_arena_invariants;
        Alcotest.test_case "dependency masks" `Quick test_dep_masks;
      ] );
    ( "arena.equivalence",
      [
        Alcotest.test_case "fleet bit-for-bit" `Quick test_fleet_identical;
        Alcotest.test_case "batch matches mapped project" `Quick
          test_batch_matches_mapped;
        Alcotest.test_case "delta matches full on a random walk" `Quick
          test_delta_matches_full;
        Alcotest.test_case "1024-point grid under the pool" `Quick
          test_grid_pool_equivalence;
      ] );
    ( "arena.fingerprint",
      [
        Alcotest.test_case "covers the request schema" `Quick
          test_fingerprint_covers_schema;
      ] );
    ( "arena.protocol",
      [
        Alcotest.test_case "engine parse" `Quick test_engine_parse;
        Alcotest.test_case "unknown engine rejected" `Quick
          test_engine_rejected;
        Alcotest.test_case "engine echoed" `Quick test_engine_echoed;
        Alcotest.test_case "tree/arena wire identity" `Quick
          test_engine_wire_identity;
        Alcotest.test_case "capabilities advertise engines" `Quick
          test_capabilities_engines;
      ] );
    ( "arena.prepared_cache",
      [
        Alcotest.test_case "warm analyze = fresh, fleet" `Quick
          test_warm_prefix_identity;
        Alcotest.test_case "warm sweep/explore = fresh" `Quick
          test_warm_prefix_fanout_identity;
      ] );
  ]
