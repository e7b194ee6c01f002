(* In-process benchmark of skope's request path: one process, one
   caller, one OCaml domain and one [Dispatch.t].  Every operation sends
   real request bodies through [Dispatch.handle], the entry point that
   every skoped and every router shard runs, in a closed loop.

   Transport (Server, Client, lib/cluster) is not measured: on a 2-core
   host the client, the accept loop and the worker domain share the
   cores, and loopback figures swing by more than the effects worth
   detecting.

   [--trace 0] prints the end-to-end metrics.  [--trace 1] replays the
   same operations and, after each one, times the public function of
   every layer on the same inputs, on state the benchmark owns, so the
   dispatcher follows the same path as in the plain run.
   perfbench/README.md records what each workload loads and bypasses. *)

module Json = Skope_report.Json
module Dispatch = Skope_service.Dispatch
module Protocol = Skope_service.Protocol
module Fingerprint = Skope_service.Fingerprint
module Lru = Skope_service.Lru
module Metrics = Skope_service.Metrics
module Explore = Skope_explore.Explore
module Gen = Skope_gen.Gen
module P = Core.Pipeline
module Registry = Core.Workloads.Registry
module Machine = Core.Hw.Machine
module Machines = Core.Hw.Machines
module Designspace = Core.Hw.Designspace
module Libmix = Core.Hw.Libmix
module Hotspot = Core.Analysis.Hotspot
module Build = Core.Bet.Build
module Parser = Core.Skeleton.Parser
module Pretty = Core.Skeleton.Pretty
module Validate = Core.Skeleton.Validate
module Lint = Core.Lint

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("bench: " ^ s);
      exit 2)
    fmt

let now_ns = Monotonic_clock.now
let us_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e3

(* --- seeded streams ------------------------------------------------ *)

(* SplitMix64: every generated value is a pure function of the
   benchmark seed, the stream number and the number of draws so far. *)
let golden = 0x9E3779B97F4A7C15L

let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

type rng = { mutable state : int64 }

let rng ~seed ~stream =
  { state = mix64 Int64.(add (of_int seed) (mul golden (of_int (stream + 1)))) }

let uniform r =
  r.state <- Int64.add r.state golden;
  Int64.to_float (Int64.shift_right_logical (mix64 r.state) 11)
  /. 9007199254740992.

let below r n = int_of_float (uniform r *. float_of_int n)

(* A value in [lo, hi) kept to [digits] decimals, so bodies stay short. *)
let draw r ~lo ~hi ~digits =
  let k = 10. ** float_of_int digits in
  Float.round ((lo +. ((hi -. lo) *. uniform r)) *. k) /. k

(* [n] draws that are not yet in [used]; [used] is extended. *)
let distinct r ?(used = Hashtbl.create 8) n draw1 =
  let rec go acc k =
    if k = n then List.rev acc
    else
      let v = draw1 r in
      if Hashtbl.mem used v then go acc k
      else (
        Hashtbl.replace used v ();
        go (v :: acc) (k + 1))
  in
  go [] 0

(* --- requests ------------------------------------------------------ *)

(* What a request asks about, kept beside its body for the output
   checks and the traced run. *)
type subject =
  | Query of Registry.t  (** analyze *)
  | Grid of Registry.t * Machine.t  (** explore: workload, base machine *)
  | Source of Gen.case * string  (** lint/audit of inline source *)

type request = { kind : string; body : string; subject : subject }

let bases = [| ("bgq", Machines.find_exn "bgq"); ("xeon", Machines.find_exn "xeon") |]

let analyze_request (w : Registry.t) mname overrides =
  {
    kind = "analyze";
    body =
      Json.to_string
        (Json.Obj
           [
             ("kind", Json.String "analyze");
             ("workload", Json.String w.name);
             ("machine", Json.String mname);
             ( "overrides",
               Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) overrides) );
           ]);
    subject = Query w;
  }

(* --- workloads ----------------------------------------------------- *)

type workload = {
  name : string;
  pool : request list;  (** sent once during set-up, filling the cache *)
  next : unit -> request list;  (** the operation sequence *)
  warmup : int;  (** operations replayed untimed before the loop *)
  hit_ratio : float option;
      (** the exact cache hit ratio the timed loop must show; [None]:
          the loop must not touch the cache at all *)
  sample_every : int;  (** keep every n-th timed operation for deep checks *)
}

(* 6 registry workloads x bgq/xeon x 20 memory bandwidths: 240 distinct
   cache slots, replayed in a seeded order. *)
let warm_hits seed =
  let r = rng ~seed ~stream:1 in
  let pool =
    List.concat_map
      (fun (w : Registry.t) ->
        List.concat_map
          (fun (mname, (m : Machine.t)) ->
            let bw = m.mem_bw_gbs in
            distinct r 20 (draw ~lo:(0.5 *. bw) ~hi:(2. *. bw) ~digits:4)
            |> List.map (fun v -> analyze_request w mname [ ("mem_bw_gbs", v) ]))
          (Array.to_list bases))
      Registry.all
    |> Array.of_list
  in
  let order = rng ~seed ~stream:2 in
  {
    name = "warm_hits";
    pool = Array.to_list pool;
    next = (fun () -> [ pool.(below order (Array.length pool)) ]);
    warmup = Array.length pool;
    hit_ratio = Some 1.;
    sample_every = 0;
  }

(* One candidate machine, never repeated, analyzed for every registry
   workload: 6 cache misses back to back. *)
let cold_whatif seed =
  let r = rng ~seed ~stream:3 in
  let used = Hashtbl.create 4096 in
  let rec candidate () =
    let mname, (m : Machine.t) = bases.(below r (Array.length bases)) in
    let bw = draw r ~lo:(0.5 *. m.mem_bw_gbs) ~hi:(2. *. m.mem_bw_gbs) ~digits:4 in
    let freq = draw r ~lo:1.0 ~hi:3.0 ~digits:4 in
    let lat = draw r ~lo:100. ~hi:400. ~digits:2 in
    let overrides =
      [ ("mem_bw_gbs", bw); ("freq_ghz", freq); ("mem_latency_cycles", lat) ]
    in
    if Hashtbl.mem used (mname, overrides) then candidate ()
    else (
      Hashtbl.replace used (mname, overrides) ();
      (mname, overrides))
  in
  {
    name = "cold_whatif";
    pool = [];
    next =
      (fun () ->
        let mname, overrides = candidate () in
        List.map (fun w -> analyze_request w mname overrides) Registry.all);
    warmup = 3;
    hit_ratio = Some 0.;
    sample_every = 16;
  }

(* One 4x4x4x4 explore grid per operation, cycling through the registry
   workloads.  The bandwidth values are new for the workload on every
   request, so every one of the 256 points misses the cache.  The
   warm-up runs past the 16 requests that fill the LRU. *)
let explore_grid seed =
  let r = rng ~seed ~stream:4 in
  let workloads = Array.of_list Registry.all in
  let used_bw = Array.map (fun _ -> Hashtbl.create 1024) workloads in
  let count = ref 0 in
  let next () =
    let i = !count mod Array.length workloads in
    incr count;
    let w = workloads.(i) in
    let mname, base = bases.(below r (Array.length bases)) in
    let bw = distinct r ~used:used_bw.(i) 4 (draw ~lo:0.5 ~hi:8. ~digits:4) in
    let lat = distinct r 4 (draw ~lo:80. ~hi:400. ~digits:1) in
    let freq = distinct r 4 (draw ~lo:0.8 ~hi:3.2 ~digits:3) in
    let issue = distinct r 4 (fun r -> 1. +. (0.5 *. float_of_int (below r 15))) in
    let axes = [ ("bw", bw); ("lat", lat); ("freq", freq); ("issue", issue) ] in
    let body =
      Json.to_string
        (Json.Obj
           [
             ("kind", Json.String "explore");
             ("workload", Json.String w.name);
             ("machine", Json.String mname);
             ( "axes",
               Json.List
                 (List.map
                    (fun (k, vs) ->
                      Json.Obj
                        [
                          ("axis", Json.String k);
                          ("values", Json.List (List.map (fun v -> Json.Float v) vs));
                        ])
                    axes) );
           ])
    in
    let grid =
      List.map (fun (k, vs) -> Result.get_ok (Designspace.axis_of_key k vs)) axes
      |> Designspace.grid_size
    in
    if grid <> 256 then die "explore request has %d points, not 256" grid;
    [ { kind = "explore"; body; subject = Grid (w, base) } ]
  in
  {
    name = "explore_grid";
    pool = [];
    next;
    warmup = 20;
    hit_ratio = Some 0.;
    sample_every = 8;
  }

(* Alternating lint and audit requests over 1024 generated programs,
   lint-clean by construction.  These bypass the cache and pricing. *)
let static_checks seed =
  let r = rng ~seed ~stream:5 in
  let body kind source =
    Json.to_string
      (Json.Obj [ ("kind", Json.String kind); ("source", Json.String source) ])
  in
  let pool =
    Array.init 1024 (fun _ ->
        let case = Gen.generate ~seed:(Int64.of_int seed) ~index:(below r 1_000_000) () in
        let source = Gen.to_source case in
        let subject = Source (case, source) in
        ( { kind = "lint"; body = body "lint" source; subject },
          { kind = "audit"; body = body "audit" source; subject } ))
  in
  let order = rng ~seed ~stream:6 in
  let count = ref 0 in
  let next () =
    let lint, audit = pool.(below order (Array.length pool)) in
    incr count;
    [ (if !count land 1 = 1 then lint else audit) ]
  in
  { name = "static_checks"; pool = []; next; warmup = 32; hit_ratio = None; sample_every = 0 }

let workloads =
  [
    ("warm_hits", warm_hits);
    ("cold_whatif", cold_whatif);
    ("explore_grid", explore_grid);
    ("static_checks", static_checks);
  ]

(* --- replies ------------------------------------------------------- *)

let trace_tag = "\"trace_id\":\""

let find_sub s sub =
  let n = String.length sub in
  let rec go i =
    if i + n > String.length s then None
    else if String.sub s i n = sub then Some i
    else go (i + 1)
  in
  go 0

(* The reply's trace id and the reply without it: hits and misses must
   agree on everything else. *)
let split_trace reply =
  match find_sub reply trace_tag with
  | None -> ("", reply)
  | Some i ->
    let start = i + String.length trace_tag in
    let stop = String.index_from reply start '"' in
    ( String.sub reply start (stop - start),
      String.sub reply 0 start ^ String.sub reply stop (String.length reply - stop) )

let ok_prefix = "{\"v\":1,\"ok\":true,"
let is_ok reply = String.starts_with ~prefix:ok_prefix reply

let result_of reply =
  match Json.of_string reply with
  | Ok j -> (match Json.member "result" j with Some r -> r | None -> Json.Null)
  | Error _ -> Json.Null

let float_member k j =
  match Json.member k j with Some v -> Json.to_float_opt v | None -> None

(* Cheap checks on every reply: ok, byte-identical (apart from the trace
   id) to the reply that filled the same cache slot, and no lint
   errors. *)
let check_reply fill (r : request) reply =
  is_ok reply
  && (match Hashtbl.find_opt fill r.body with
     | Some first -> snd (split_trace reply) = first
     | None -> true)
  &&
  match r.kind with
  | "lint" -> (
    match Json.member "errors" (result_of reply) with
    | Some (Json.Int 0) -> true
    | _ -> false)
  | _ -> true

let criteria = Hotspot.default_criteria

let arena_prepared = Hashtbl.create 8

(* Deep checks on sampled operations, after the timed loop: analyze
   totals equal a direct [Pipeline.analyze]; explore points equal
   [Prepared.project] under the arena engine (the bit-identity
   contract), with 256 points and a non-empty Pareto frontier. *)
let deep_check (r : request) reply =
  let result = result_of reply in
  match r.subject with
  | Query w ->
    let q =
      match Protocol.parse_request r.body with
      | Ok (Protocol.Analyze q, _) -> q
      | _ -> die "analyze body does not parse"
    in
    let machine =
      List.fold_left
        (fun (m : Machine.t) (k, v) ->
          match k with
          | "mem_bw_gbs" -> { m with mem_bw_gbs = v }
          | "freq_ghz" -> { m with freq_ghz = v }
          | "mem_latency_cycles" -> { m with mem_latency_cycles = v }
          | k -> die "no override %s" k)
        (Machines.find_exn q.Protocol.machine)
        q.Protocol.overrides
    in
    let a = P.analyze ~criteria ~machine ~workload:w ~scale:w.default_scale () in
    float_member "total_ms" result = Some (a.P.a_projection.total_time *. 1e3)
  | Grid (w, base) -> (
    match (Json.member "points" result, Json.member "pareto" result) with
    | Some (Json.List points), Some (Json.List (_ :: _)) when List.length points = 256 ->
      let axes =
        match Protocol.parse_request r.body with
        | Ok (Protocol.Explore (_, spec), _) -> spec.Protocol.e_axes
        | _ -> die "explore body does not parse"
      in
      let grid = Array.of_list (Explore.grid_points base axes) in
      let points = Array.of_list points in
      let prep =
        match Hashtbl.find_opt arena_prepared w.name with
        | Some p -> p
        | None ->
          let p = P.Prepared.create ~engine:P.Arena ~workload:w ~scale:w.default_scale () in
          Hashtbl.add arena_prepared w.name p;
          p
      in
      List.for_all
        (fun i ->
          let pt = grid.(i) in
          let o = P.Prepared.project ~criteria prep pt.Designspace.p_machine in
          let reply_pt = points.(i) in
          Json.member "tag" reply_pt = Some (Json.String pt.Designspace.p_tag)
          &&
          match Json.member "analysis" reply_pt with
          | Some a -> float_member "total_ms" a = Some (o.P.Prepared.o_total_time *. 1e3)
          | None -> false)
        [ 0; 37; 74; 111; 148; 185; 222; 255 ]
    | _ -> false)
  | Source _ -> true

(* --- traced run ---------------------------------------------------- *)

let audit_config = Lint.Audit.default_config
let generic_libwork = Libmix.work_fn Libmix.default

(* Per-layer timings.  A layer records the time of one call of its
   public function on the request's inputs.  [calls] is how many such
   calls [Dispatch.handle] makes for the request; the layers on its path
   add up to [onpath], and the rest of the handle time is the residual.
   A layer off the path (calls = 0) is still timed on the same inputs:
   that is the work the workload bypasses. *)
type tracer = {
  lru : Json.t Lru.t;  (** mirrors the dispatcher's cache *)
  samples : (string, float list ref) Hashtbl.t;
  sources : (string, string) Hashtbl.t;  (** registry workload -> DSL text *)
  mutable onpath : float;
  mutable recording : bool;
  mutable mismatches : int;
}

let record t name v =
  if t.recording then
    match Hashtbl.find_opt t.samples name with
    | Some l -> l := v :: !l
    | None -> Hashtbl.add t.samples name (ref [ v ])

let time t name ?(calls = 0) f =
  let t0 = now_ns () in
  let x = f () in
  let dt = us_since t0 in
  record t name dt;
  t.onpath <- t.onpath +. (float_of_int calls *. dt);
  x

(* [n] calls timed together, all on the path; recorded per call. *)
let time_batch t name ~n f =
  let t0 = now_ns () in
  let x = f () in
  let dt = us_since t0 in
  record t name (dt /. float_of_int n);
  t.onpath <- t.onpath +. dt;
  x

let parse_request t body =
  match
    time t "service.protocol.parse_request_us" ~calls:1 (fun () ->
        Protocol.parse_request body)
  with
  | Ok (req, _) -> req
  | Error (_, msg) -> die "request does not parse: %s" msg

let check_serialized t reply result =
  let trace_id, _ = split_trace reply in
  let again =
    time t "service.protocol.ok_response_us" ~calls:1 (fun () ->
        Protocol.ok_response ~trace_id result)
  in
  if again <> reply then t.mismatches <- t.mismatches + 1

(* The machine-independent layers of a registry workload: inside
   [Prepared.create] on a miss, bypassed otherwise. *)
let program_layers t (w : Registry.t) ~scale =
  let program, inputs = time t "workloads.make_us" (fun () -> w.make ~scale) in
  ignore
    (time t "skeleton.validate_us" (fun () ->
         Validate.check ~inputs:(List.map fst inputs) program));
  ignore (time t "lint.engine_us" (fun () -> Lint.Engine.run ~inputs program));
  ignore
    (time t "bet.build_us" (fun () ->
         Build.build ~lib_work:(Libmix.work_fn w.libmix) ~inputs program));
  let source =
    match Hashtbl.find_opt t.sources w.name with
    | Some s -> s
    | None ->
      let s = Pretty.to_string program in
      Hashtbl.add t.sources w.name s;
      s
  in
  ignore (time t "skeleton.parse_us" (fun () -> Parser.parse ~file:"<request>" source));
  ignore
    (time t "lint.audit_us" (fun () -> Lint.Audit.run ~config:audit_config ~inputs program));
  ignore
    (time t "lint.symbolic_us" (fun () ->
         Lint.Symbolic.derive ~lib_work:generic_libwork ~inputs program))

let trace_query t (w : Registry.t) body reply =
  let q =
    match parse_request t body with Protocol.Analyze q -> q | _ -> die "not an analyze body"
  in
  let machine = Result.get_ok (Protocol.resolve_machine q) in
  let scale = w.default_scale in
  let criteria =
    { Hotspot.time_coverage = q.Protocol.coverage; code_leanness = q.Protocol.leanness }
  in
  let key =
    time t "service.fingerprint.of_query_us" ~calls:2 (fun () ->
        Fingerprint.of_query ~workload:w.name ~machine ~scale ~criteria ~top:q.Protocol.top
          ~engine:"tree")
  in
  let cached = time t "service.lru.find_us" ~calls:1 (fun () -> Lru.find t.lru key) in
  let miss = if cached = None then 1 else 0 in
  let result = match cached with Some j -> j | None -> result_of reply in
  if miss = 1 || t.recording then
    time t "service.lru.add_us" ~calls:miss (fun () -> Lru.add t.lru key result);
  if t.recording then (
    check_serialized t reply result;
    let prep =
      time t "pipeline.prepare_us" ~calls:miss (fun () ->
          P.Prepared.create ~workload:w ~scale ())
    in
    ignore
      (time t "analysis.project_us" ~calls:miss (fun () ->
           P.Prepared.project ~criteria prep machine));
    program_layers t w ~scale)

let trace_grid t (w : Registry.t) body reply =
  let q, spec =
    match parse_request t body with
    | Protocol.Explore (q, spec) -> (q, spec)
    | _ -> die "not an explore body"
  in
  let base = Result.get_ok (Protocol.resolve_machine q) in
  let scale = w.default_scale in
  let criteria =
    { Hotspot.time_coverage = q.Protocol.coverage; code_leanness = q.Protocol.leanness }
  in
  let fingerprint machine =
    Fingerprint.of_query ~workload:w.name ~machine ~scale ~criteria ~top:q.Protocol.top
      ~engine:"tree"
  in
  ignore (time t "service.fingerprint.of_query_us" ~calls:1 (fun () -> fingerprint base));
  let pts = Array.of_list (Explore.grid_points base spec.Protocol.e_axes) in
  let n = Array.length pts in
  let result = result_of reply in
  let analyses =
    match Json.member "points" result with
    | Some (Json.List l) when List.length l = n ->
      Array.of_list
        (List.map (fun p -> Option.value ~default:Json.Null (Json.member "analysis" p)) l)
    | _ -> die "explore reply without %d points" n
  in
  let keys =
    time_batch t "service.fingerprint.of_query_us" ~n (fun () ->
        Array.map (fun (p : Designspace.point) -> fingerprint p.p_machine) pts)
  in
  let found =
    time_batch t "service.lru.find_us" ~n (fun () -> Array.map (Lru.find t.lru) keys)
  in
  if Array.exists Option.is_some found then t.mismatches <- t.mismatches + 1;
  time_batch t "service.lru.add_us" ~n (fun () ->
      Array.iteri (fun i k -> Lru.add t.lru k analyses.(i)) keys);
  if t.recording then (
    let prep =
      time t "pipeline.prepare_us" ~calls:1 (fun () -> P.Prepared.create ~workload:w ~scale ())
    in
    ignore
      (time_batch t "analysis.project_us" ~n (fun () ->
           Array.map
             (fun (p : Designspace.point) -> P.Prepared.project ~criteria prep p.p_machine)
             pts));
    check_serialized t reply result;
    program_layers t w ~scale)

let trace_source t kind (case : Gen.case) source body reply =
  (match parse_request t body with
  | Protocol.Lint _ | Protocol.Audit _ -> ()
  | _ -> die "not a lint or audit body");
  let lint = if kind = "lint" then 1 else 0 in
  let program =
    time t "skeleton.parse_us" ~calls:1 (fun () -> Parser.parse ~file:"<request>" source)
  in
  ignore (time t "skeleton.validate_us" ~calls:1 (fun () -> Validate.check program));
  ignore (time t "lint.engine_us" ~calls:lint (fun () -> Lint.Engine.run program));
  ignore
    (time t "lint.audit_us" ~calls:(1 - lint) (fun () ->
         Lint.Audit.run ~config:audit_config program));
  ignore
    (time t "lint.symbolic_us" (fun () ->
         Lint.Symbolic.derive ~lib_work:generic_libwork program));
  check_serialized t reply (result_of reply);
  (* Off the path: the projection layers, with the generated program
     posing as a registry workload on the audit machine. *)
  let w =
    {
      Registry.name = case.name;
      description = "generated";
      make = (fun ~scale:_ -> (program, case.inputs));
      default_scale = 1.;
      libmix = Libmix.default;
      paper_top_k = 1;
    }
  in
  let machine = audit_config.Lint.Audit.machine in
  let key =
    time t "service.fingerprint.of_query_us" (fun () ->
        Fingerprint.of_query ~workload:w.name ~machine ~scale:1. ~criteria ~top:10
          ~engine:"tree")
  in
  let cached = time t "service.lru.find_us" (fun () -> Lru.find t.lru key) in
  ignore (time t "workloads.make_us" (fun () -> w.make ~scale:1.));
  ignore
    (time t "bet.build_us" (fun () ->
         Build.build ~lib_work:generic_libwork ~inputs:case.inputs program));
  let prep =
    time t "pipeline.prepare_us" (fun () -> P.Prepared.create ~workload:w ~scale:1. ())
  in
  let o = time t "analysis.project_us" (fun () -> P.Prepared.project ~criteria prep machine) in
  let value = Option.value cached ~default:(Json.Float o.P.Prepared.o_total_time) in
  time t "service.lru.add_us" (fun () -> Lru.add t.lru key value)

let trace_request t (r : request) reply =
  match r.subject with
  | Query w -> trace_query t w r.body reply
  | Grid (w, _) -> trace_grid t w r.body reply
  | Source (case, source) -> if t.recording then trace_source t r.kind case source r.body reply

(* --- statistics ---------------------------------------------------- *)

(* Nearest-rank percentile of a sorted array. *)
let nearest_rank p a =
  let n = Array.length a in
  if n = 0 then nan else a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let median values =
  let a = Array.of_list values in
  Array.sort Float.compare a;
  nearest_rank 0.5 a

let mean l = List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

(* Latency percentiles per window of the timed loop (at least
   [window_ns] and [window_min_ops] long), averaged over the windows.
   The host speed switches between a fast and a slow state every second
   or so.  A percentile over the whole run jumps from one state's figure
   to the other's as the share of time in each crosses a threshold; the
   window average moves in proportion to that share.  The latencies of
   the open window live in one reused unboxed buffer, so the
   bookkeeping does not grow the heap with the number of operations. *)
let window_ns = 500_000_000L
let window_min_ops = 20

type windows = {
  mutable buf : float array;
  mutable len : int;
  mutable opened : int64;
  mutable p50s : float list;
  mutable p90s : float list;
  mutable beyond_p90 : int;  (** operations slower than their window's p90 *)
  mutable ops : int;
  mutable busy_us : float;  (** time spent inside [Dispatch.handle] *)
}

let windows () =
  { buf = Array.make 1024 0.; len = 0; opened = now_ns (); p50s = []; p90s = [];
    beyond_p90 = 0; ops = 0; busy_us = 0. }

let close_window w =
  let a = Array.sub w.buf 0 w.len in
  Array.sort Float.compare a;
  let p90 = nearest_rank 0.9 a in
  w.p50s <- nearest_rank 0.5 a :: w.p50s;
  w.p90s <- p90 :: w.p90s;
  Array.iter (fun x -> if x > p90 then w.beyond_p90 <- w.beyond_p90 + 1) a;
  w.len <- 0;
  w.opened <- now_ns ()

let add_latency w dt =
  if w.len = Array.length w.buf then (
    let bigger = Array.make (2 * w.len) 0. in
    Array.blit w.buf 0 bigger 0 w.len;
    w.buf <- bigger);
  w.buf.(w.len) <- dt;
  w.len <- w.len + 1;
  w.ops <- w.ops + 1;
  w.busy_us <- w.busy_us +. dt;
  if w.len >= window_min_ops && Int64.sub (now_ns ()) w.opened >= window_ns then close_window w

let finish_windows w =
  if w.len >= window_min_ops || (w.p50s = [] && w.len > 0) then close_window w

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* Words allocated so far: minor, and major (promoted plus allocated
   directly in the major heap).  The forced minor collection makes the
   major count exact at operation boundaries.  It also matters for
   safety: on OCaml 5.1, calling [Gc.counters] once per operation with
   a partly full minor heap made this program abort with "allocation
   failure during minor GC"; with an empty minor heap it cannot
   trigger a collection while it boxes its results. *)
let gc_words () =
  Gc.minor ();
  let _, _, major = Gc.counters () in
  (Gc.minor_words (), major)

(* Timed operations whose replies are kept for the deep checks: a
   fixed number, so the kept replies add the same memory to every run. *)
let max_sampled = 16

let metric value unit_ = Json.Obj [ ("value", Json.Float value); ("unit", Json.String unit_) ]

(* --- main ---------------------------------------------------------- *)

let per_layer_units =
  [
    ("service.protocol.parse_request_us", "us");
    ("service.fingerprint.of_query_us", "us");
    ("service.lru.find_us", "us");
    ("service.lru.add_us", "us");
    ("service.protocol.ok_response_us", "us");
    ("service.dispatch.handle_us", "us");
    ("service.dispatch.residual_us", "us");
    ("service.dispatch.named_share", "ratio");
    ("service.dispatch.hit_ratio", "ratio");
    ("workloads.make_us", "us");
    ("skeleton.validate_us", "us");
    ("lint.engine_us", "us");
    ("bet.build_us", "us");
    ("pipeline.prepare_us", "us");
    ("analysis.project_us", "us");
    ("skeleton.parse_us", "us");
    ("lint.audit_us", "us");
    ("lint.symbolic_us", "us");
    ("gc.minor_words_per_op", "words");
    ("gc.major_words_per_op", "words");
  ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and setup_only = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of the workloads");
      ("--seed", Arg.Set_int seed, "N seed of every generated body");
      ("--seconds", Arg.Set_float seconds, "S length of the timed loop");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--setup-only", Arg.Set setup_only, " time the set-up, print it and exit");
    ]
    (fun a -> die "unexpected argument %s" a)
    "bench --workload NAME --seed N --seconds S --trace 0|1";
  let make =
    match List.assoc_opt !workload workloads with
    | Some f -> f
    | None ->
      die "unknown workload %S (one of %s)" !workload
        (String.concat ", " (List.map fst workloads))
  in
  let traced = !trace = 1 in
  let t_setup = now_ns () in
  let dispatch = Dispatch.create () in
  let handled = ref 0 in
  let handle body =
    incr handled;
    Dispatch.handle dispatch body
  in
  let tracer =
    {
      lru = Lru.create ~capacity:Dispatch.default_config.cache_capacity;
      samples = Hashtbl.create 32;
      sources = Hashtbl.create 8;
      onpath = 0.;
      recording = false;
      mismatches = 0;
    }
  in
  let wl = make !seed in
  (* The body list: the set-up pool and the first 256 operations. *)
  let prefix = Array.init 256 (fun _ -> wl.next ()) in
  let bodies =
    List.map (fun r -> r.body) (wl.pool @ List.concat (Array.to_list prefix))
  in
  let checksum = Digest.to_hex (Digest.string (String.concat "\n" bodies)) in
  let sent = ref 0 in
  let next_op () =
    let op = if !sent < Array.length prefix then prefix.(!sent) else wl.next () in
    incr sent;
    op
  in
  let fill = Hashtbl.create 256 in
  let setup_failures = ref 0 in
  List.iter
    (fun r ->
      let reply = handle r.body in
      if is_ok reply then Hashtbl.replace fill r.body (snd (split_trace reply))
      else incr setup_failures;
      if traced then trace_request tracer r reply)
    wl.pool;
  for _ = 1 to wl.warmup do
    List.iter
      (fun r ->
        let reply = handle r.body in
        if not (check_reply fill r reply) then incr setup_failures;
        if traced then trace_request tracer r reply)
      (next_op ())
  done;
  let setup_s = us_since t_setup /. 1e6 in
  if !setup_only then (
    Printf.printf "{\"setup_s\": %.17g}\n" setup_s;
    exit 0);
  (* --- the timed loop --- *)
  let lookups () =
    let v = Metrics.view dispatch.Dispatch.metrics in
    (v.Metrics.cache_hits, v.Metrics.cache_misses)
  in
  let hits0, misses0 = lookups () in
  tracer.recording <- traced;
  let win = windows () and attempted = ref 0 and failed = ref 0 in
  let sampled = ref [] and n_sampled = ref 0 in
  let deadline = Int64.add (now_ns ()) (Int64.of_float (!seconds *. 1e9)) in
  while Int64.compare (now_ns ()) deadline < 0 do
    let op = next_op () in
    let gc0 = if traced then gc_words () else (0., 0.) in
    let t0 = now_ns () in
    let replies = List.map (fun r -> handle r.body) op in
    let dt = us_since t0 in
    let gc1 = if traced then gc_words () else (0., 0.) in
    incr attempted;
    add_latency win dt;
    let ok = List.for_all2 (check_reply fill) op replies in
    if not ok then incr failed
    else if wl.sample_every > 0 && !attempted mod wl.sample_every = 0 && !n_sampled < max_sampled
    then (
      incr n_sampled;
      sampled := (op, replies) :: !sampled);
    if traced then (
      tracer.onpath <- 0.;
      List.iter2 (trace_request tracer) op replies;
      record tracer "service.dispatch.handle_us" dt;
      record tracer "service.dispatch.residual_us" (dt -. tracer.onpath);
      record tracer "service.dispatch.named_share" (tracer.onpath /. dt);
      record tracer "gc.minor_words_per_op" (fst gc1 -. fst gc0);
      record tracer "gc.major_words_per_op" (snd gc1 -. snd gc0))
  done;
  finish_windows win;
  let peak_rss = peak_rss_mb () in
  let hits1, misses1 = lookups () in
  (* --- self-checks: abort a run that does not measure what it claims --- *)
  let hits = hits1 - hits0 and misses = misses1 - misses0 in
  let hit_ratio =
    if hits + misses = 0 then 0. else float_of_int hits /. float_of_int (hits + misses)
  in
  (match wl.hit_ratio with
  | Some want when hit_ratio <> want ->
    die "%s: cache hit ratio %g (%d hits, %d misses), expected %g" wl.name hit_ratio hits misses want
  | None when hits + misses > 0 -> die "%s: %d cache lookups, expected none" wl.name (hits + misses)
  | _ -> ());
  let served = (Metrics.view dispatch.Dispatch.metrics).Metrics.total_requests in
  if served <> !handled then
    die "the dispatcher served %d requests but the benchmark sent %d" served !handled;
  (* --- deep output checks on the sampled operations --- *)
  List.iter
    (fun (op, replies) -> if not (List.for_all2 deep_check op replies) then incr failed)
    (List.rev !sampled);
  let correct = !failed = 0 && !setup_failures = 0 && tracer.mismatches = 0 in
  let n = !attempted in
  Printf.eprintf "%s seed=%d bodies=%d checksum=%s\n" wl.name !seed (List.length bodies) checksum;
  Printf.eprintf
    "operations: %d attempted, %d succeeded, %d failed (set-up failures %d, %d deep-checked)\n"
    n (n - !failed) !failed !setup_failures (List.length !sampled);
  let metrics =
    if not traced then (
      let m =
        [
          ("setup_s", setup_s, "s");
          ("throughput_per_s", float_of_int win.ops /. (win.busy_us /. 1e6), "1/s");
          ("latency_p50_ms", mean win.p50s /. 1e3, "ms");
          ("latency_p90_ms", mean win.p90s /. 1e3, "ms");
          ("peak_rss_mb", peak_rss, "MB");
        ]
      in
      List.iter (fun (k, v, u) -> Printf.eprintf "  %-18s %12.4f %s\n" k v u) m;
      Printf.eprintf "  (%d windows; %d operations beyond their window's p90)\n"
        (List.length win.p90s) win.beyond_p90;
      List.map (fun (k, v, u) -> (k, metric v u)) m)
    else (
      if tracer.mismatches > 0 then
        Printf.eprintf "traced replays that did not match the dispatcher: %d\n" tracer.mismatches;
      List.map
        (fun (k, u) ->
          let v =
            if k = "service.dispatch.hit_ratio" then hit_ratio
            else
              match Hashtbl.find_opt tracer.samples k with
              | Some l -> median !l
              | None -> die "no samples for %s" k
          in
          Printf.eprintf "  %-36s %14.3f %s\n" k v u;
          (k, metric v u))
        per_layer_units)
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int n);
            ("failed", Json.Int !failed);
            ("metrics", Json.Obj metrics);
          ]))
