(* Tests for the arena BET engine: structural invariants of the
   flattened arena, bit-for-bit equivalence with the tree engine
   across the whole bundled fleet, batch and delta re-pricing, the
   v2 cache fingerprint, and the served projections against the
   tree walk. *)

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

let with_dispatch = Support.with_dispatch
let handle = Support.handle

let result_of response =
  match Json.of_string response with
  | Error e -> Alcotest.failf "response is not JSON (%s): %s" e response
  | Ok r -> (
    match (Json.member "ok" r, Json.member "result" r) with
    | Some (Json.Bool true), Some result -> result
    | _ -> Alcotest.failf "expected ok response: %s" response)

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
      let tree = P.Prepared.create ~engine:P.Tree ~workload:w ~scale () in
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
  let tree = P.Prepared.create ~engine:P.Tree ~workload:w ~scale () in
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
  let tree = P.Prepared.create ~engine:P.Tree ~workload:w ~scale () in
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

(* --- the served projection -------------------------------------- *)

let float_member key j =
  match Json.member key j with
  | Some (Json.Float f) -> Some f
  | Some (Json.Int i) -> Some (float_of_int i)
  | _ -> None

(* The service prices with the arena; the tree walk of
   [Pipeline.analyze] is the oracle.  Every workload on two machines:
   the served total and the ranked spots (block and time) match. *)
let test_served_matches_tree () =
  with_dispatch @@ fun dispatch ->
  List.iter
    (fun (w : Registry.t) ->
      List.iter
        (fun machine ->
          let label = w.Registry.name ^ "/" ^ machine in
          let result =
            result_of
              (handle ~dispatch
                 (Printf.sprintf
                    {|{"kind":"analyze","workload":%S,"machine":%S}|}
                    w.Registry.name machine))
          in
          let a =
            P.analyze ~machine:(Option.get (Machines.find machine)) ~workload:w
              ~scale:w.Registry.default_scale ()
          in
          let projection = a.P.a_projection in
          Alcotest.(check (option (float 0.)))
            (label ^ ": total_ms")
            (Some (projection.Perf.total_time *. 1e3))
            (float_member "total_ms" result);
          let served =
            match Json.member "spots" result with
            | Some (Json.List l) ->
              List.map
                (fun spot ->
                  ( (match Json.member "block" spot with
                    | Some (Json.String b) -> b
                    | _ -> Alcotest.failf "%s: spot without block" label),
                    float_member "ms" spot ))
                l
            | _ -> Alcotest.failf "%s: no spots" label
          in
          let expected =
            List.filteri (fun i _ -> i < 10) projection.Perf.blocks
            |> List.map (fun (b : Core.Analysis.Blockstat.t) ->
                   (b.name, Some (b.time *. 1e3)))
          in
          Alcotest.(check (list (pair string (option (float 0.)))))
            (label ^ ": ranked spots") expected served)
        [ "bgq"; "xeon" ])
    Registry.all

(* Older clients may still send an ["engine"] field.  Whatever its
   value, the reply is byte-for-byte the one the same body gets
   without it (both carry the same trace id). *)
let test_engine_field_ignored () =
  List.iter
    (fun (kind, fields) ->
      let body extra =
        Printf.sprintf {|{"kind":%S,%s%s,"trace":{"id":"t-engine"}}|} kind
          fields extra
      in
      let expected = handle (body "") in
      ignore (result_of expected);
      List.iter
        (fun engine ->
          Alcotest.(check string)
            (Printf.sprintf "%s with engine %s" kind engine)
            expected
            (handle (body (",\"engine\":" ^ engine))))
        [ {|"tree"|}; {|"warp"|}; "7" ])
    [
      ("analyze", {|"workload":"sord","machine":"bgq"|});
      ( "sweep",
        {|"workload":"sord","machine":"bgq","axis":"bw","values":[7,14]|} );
      ( "explore",
        {|"workload":"sord","machine":"bgq","axes":[{"axis":"bw","values":[7,14]},{"axis":"freq","values":[0.8,1.6]}]|}
      );
    ]

(* --- prepared-BET reuse across requests ------------------------------ *)

let analyze_body ~workload ~machine =
  Printf.sprintf
    {|{"kind":"analyze","workload":%S,"machine":%S,"trace":{"id":"t-prep"}}|}
    workload machine

(* An analyze priced on a prepared handle left behind by an earlier
   request (same workload, other machine) replies with exactly the
   bytes a fresh dispatcher computes from scratch, on every workload
   and machine. *)
let test_warm_prefix_identity () =
  List.iter
    (fun (w : Registry.t) ->
      List.iter
        (fun (machine, other) ->
          let body = analyze_body ~workload:w.Registry.name in
          with_dispatch @@ fun warm ->
          ignore (handle ~dispatch:warm (body ~machine:other));
          let reused = handle ~dispatch:warm (body ~machine) in
          let fresh = handle (body ~machine) in
          Alcotest.(check string)
            (Printf.sprintf "%s/%s" w.Registry.name machine)
            fresh reused)
        [ ("bgq", "xeon"); ("xeon", "bgq") ])
    Registry.all

(* The same for a fan-out: a sweep and an explore (points and pareto)
   whose prepared handle comes from an earlier analyze. *)
let test_warm_prefix_fanout_identity () =
  let check label body =
    with_dispatch @@ fun warm ->
    ignore
      (handle ~dispatch:warm (analyze_body ~workload:"sord" ~machine:"xeon"));
    let reused = handle ~dispatch:warm body in
    Alcotest.(check string) label (handle body) reused;
    match Json.member "pareto" (result_of reused) with
    | None | Some (Json.List (_ :: _)) -> ()
    | Some _ -> Alcotest.failf "%s: empty pareto" label
  in
  check "sweep"
    {|{"kind":"sweep","workload":"sord","machine":"bgq","axis":"bw","values":[7,14,28],"trace":{"id":"t-prep"}}|};
  check "explore"
    {|{"kind":"explore","workload":"sord","machine":"bgq","axes":[{"axis":"bw","values":[7,14]},{"axis":"freq","values":[0.8,1.6]}],"trace":{"id":"t-prep"}}|}

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
        Alcotest.test_case "served analyze = tree walk" `Quick
          test_served_matches_tree;
        Alcotest.test_case "engine field ignored" `Quick
          test_engine_field_ignored;
      ] );
    ( "arena.prepared_cache",
      [
        Alcotest.test_case "warm analyze = fresh, fleet" `Quick
          test_warm_prefix_identity;
        Alcotest.test_case "warm sweep/explore = fresh" `Quick
          test_warm_prefix_fanout_identity;
      ] );
  ]
