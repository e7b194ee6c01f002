(** End-to-end analysis pipeline (paper Fig. 1).

    For a workload and a target machine the pipeline:

    + builds the skeleton program and its input bindings,
    + profiles it {e once} on a local machine to obtain the
      hardware-independent branch statistics (gcov stand-in, §III-B),
    + constructs the Bayesian Execution Tree (§IV),
    + projects per-block performance on the target with the roofline
      model (§V-A) — no execution on the target is needed,
    + selects hot spots under the coverage/leanness criteria (§V-B),

    and, for validation only, also runs the ground-truth simulator on
    the target to obtain the "measured" profile the paper compares
    against (§VI). *)

open Skope_skeleton
open Skope_bet
open Skope_hw
open Skope_analysis
open Skope_sim
open Skope_workloads

type run = {
  workload : Registry.t;
  machine : Machine.t;
  scale : float;
  program : Ast.program;
  inputs : (string * Value.t) list;
  hints : Hints.t;
  built : Build.result;  (** the BET *)
  projection : Perf.projection;  (** Modl: analytic per-block times *)
  measured : Interp.result;  (** Prof: simulator ground truth *)
  model_sel : Hotspot.selection;
  measured_sel : Hotspot.selection;
}

(** Analytic-only result: what a user studying a not-yet-built machine
    would have (no ground truth available). *)
type analysis = {
  a_program : Ast.program;
  a_built : Build.result;
  a_projection : Perf.projection;
  a_selection : Hotspot.selection;
}

let local_machine = Machines.xeon

module Span = Skope_telemetry.Span

(** Profile the skeleton once on the local machine to gather branch
    outcome statistics and while-loop trip counts. *)
let profile ?(seed = 42L) ~libmix ~inputs program : Hints.t =
  Span.with_ ~name:"profile" (fun () ->
      let config =
        Interp.default_config ~machine:local_machine ~libmix ~seed ()
      in
      (Interp.run ~config ~inputs program).Interp.hints)

(** The machine-independent prefix of the pipeline: workload make ->
    validate -> lint -> (optional local profiling) -> BET
    construction.  Nothing here depends on the target machine, so a
    design-space explorer runs it once and re-prices the same BET on
    every grid point.  [profile_hints] replaces the caller-supplied
    [hints] with one local profiling run (the [run] path); [hints]
    defaults to empty (the [analyze] and service path). *)
type prefix = {
  workload : Registry.t;
  program : Ast.program;
  inputs : (string * Value.t) list;
  hints : Hints.t;
  built : Build.result;  (** the BET, priced by nothing yet *)
}

let prefix ?(hints = Hints.empty) ?(profile_hints = false) ?(seed = 42L)
    ~(workload : Registry.t) ~scale () : prefix =
  let program, inputs =
    Span.with_ ~name:"workload_make"
      ~attrs:[ ("workload", workload.Registry.name) ]
      (fun () -> workload.Registry.make ~scale)
  in
  Span.with_ ~name:"validate" (fun () ->
      Validate.check_exn ~inputs:(List.map fst inputs) program);
  Span.with_ ~name:"lint" (fun () ->
      Skope_lint.Engine.check_exn ~inputs program);
  let libmix = workload.Registry.libmix in
  let hints =
    if profile_hints then profile ~seed ~libmix ~inputs program else hints
  in
  let built =
    Build.build ~hints ~lib_work:(Libmix.work_fn libmix) ~inputs program
  in
  { workload; program; inputs; hints; built }

(* Both engines rank before selection ([Perf.project] and
   [Arena_price.aggregate]), so the re-sort is skipped. *)
let select_ranked ~criteria (built : Build.result) blocks =
  Span.with_ ~name:"hotspot" (fun () ->
      Hotspot.select ~criteria ~assume_ranked:true
        ~total_instructions:(Bst.total_instructions built.Build.bst)
        blocks)

(** BET pricing engines.  [Tree] is the recursive walk of
    {!Perf.project}; [Arena] flattens the BET once into a post-order
    arena ({!Skope_bet.Arena}) and re-prices it with flat forward
    loops and per-axis incrementality ({!Arena_price}).  The two are
    bit-for-bit identical on blocks and totals; [Tree] is kept as the
    reference the parity checks compare against. *)
type engine = Tree | Arena

(** The projection API: an abstract handle over the machine-independent
    prefix plus the pricing engine chosen for it. *)
module Prepared = struct
  type t = {
    pre : prefix;
    arena : Arena.t option;  (** [Some] iff the engine is [Arena] *)
  }

  (** Result of pricing one machine point, engine-independent.
      [o_state] (arena engine only) carries the pricing state that
      {!project_delta} continues from; [strip_state] drops it when a
      caller retains many outcomes. *)
  type outcome = {
    o_machine : Machine.t;
    o_blocks : Blockstat.t list;  (** ranked by decreasing time *)
    o_total_time : float;
    o_selection : Hotspot.selection;
    o_state : Arena_price.priced option;
  }

  (* The arena is built eagerly: OCaml's [Lazy.force] is not safe to
     race from the explorer's domain pool. *)
  let create ?(engine = Arena) ~workload ~scale () : t =
    let pre = prefix ~workload ~scale () in
    {
      pre;
      arena =
        (match engine with
        | Tree -> None
        | Arena ->
          Some
            (Span.with_ ~name:"arena_build" (fun () ->
                 Arena.of_build pre.built)));
    }

  let built t = t.pre.built
  let workload t = t.pre.workload
  let strip_state o = { o with o_state = None }

  let of_priced ~criteria t (p : Arena_price.priced) : outcome =
    let blocks = Arena_price.blocks p in
    {
      o_machine = Arena_price.machine p;
      o_blocks = blocks;
      o_total_time = Arena_price.total_time p;
      o_selection = select_ranked ~criteria t.pre.built blocks;
      o_state = Some p;
    }

  let project ?(criteria = Hotspot.default_criteria)
      ?(opts = Roofline.default_opts) ?(cache = Perf.Constant) (t : t)
      (machine : Machine.t) : outcome =
    match t.arena with
    | Some arena ->
      of_priced ~criteria t (Arena_price.price ~opts ~cache arena machine)
    | None ->
      let projection = Perf.project ~opts ~cache machine t.pre.built in
      {
        o_machine = machine;
        o_blocks = projection.Perf.blocks;
        o_total_time = projection.Perf.total_time;
        o_selection =
          select_ranked ~criteria t.pre.built projection.Perf.blocks;
        o_state = None;
      }

  let project_delta ?(criteria = Hotspot.default_criteria)
      ?(opts = Roofline.default_opts) ?(cache = Perf.Constant) ~prev (t : t)
      (machine : Machine.t) : outcome =
    match (t.arena, prev.o_state) with
    | Some arena, Some p ->
      of_priced ~criteria t
        (Arena_price.price_delta ~opts ~cache ~prev:p arena machine)
    | _ -> project ~criteria ~opts ~cache t machine

  let project_batch ?(criteria = Hotspot.default_criteria)
      ?(opts = Roofline.default_opts) ?(cache = Perf.Constant) (t : t)
      (machines : Machine.t array) : outcome array =
    match t.arena with
    | Some arena ->
      Array.map (of_priced ~criteria t)
        (Arena_price.price_batch ~opts ~cache arena machines)
    | None -> Array.map (project ~criteria ~opts ~cache t) machines
end

(** Analytic projection only — no execution on [machine] at all.  The
    tree walk, so the result carries per-node times for hot paths. *)
let analyze ?(criteria = Hotspot.default_criteria)
    ?(opts = Roofline.default_opts) ?(cache = Perf.Constant)
    ?(hints = Hints.empty) ~machine ~(workload : Registry.t) ~scale () :
    analysis =
  let p = prefix ~hints ~workload ~scale () in
  let projection = Perf.project ~opts ~cache machine p.built in
  {
    a_program = p.program;
    a_built = p.built;
    a_projection = projection;
    a_selection = select_ranked ~criteria p.built projection.Perf.blocks;
  }

(** Static performance audit of a bundled workload: symbolic scaling /
    working-set / communication diagnostics at [scale], with the
    workload's own [make] as the scale-sweep [vary] hook so growth
    probes rebind every input consistently. *)
let audit ?(config = Skope_lint.Audit.default_config)
    ~(workload : Registry.t) ~scale () : Skope_lint.Audit.report =
  let program, inputs =
    Span.with_ ~name:"workload_make"
      ~attrs:[ ("workload", workload.Registry.name) ]
      (fun () -> workload.Registry.make ~scale)
  in
  let config =
    {
      config with
      Skope_lint.Audit.vary =
        Some (fun m -> snd (workload.Registry.make ~scale:(scale *. m)));
    }
  in
  Skope_lint.Audit.run ~config ~inputs program

(** Full validation run: profile locally, project analytically, and
    simulate on the target as ground truth. *)
let run ?(criteria = Hotspot.default_criteria) ?(opts = Roofline.default_opts)
    ?(seed = 42L) ?scale ~machine (workload : Registry.t) : run =
  let scale =
    match scale with Some s -> s | None -> workload.Registry.default_scale
  in
  let p = prefix ~profile_hints:true ~seed ~workload ~scale () in
  let built = p.built in
  let projection = Perf.project ~opts machine built in
  let libmix = workload.Registry.libmix in
  let config = Interp.default_config ~machine ~libmix ~seed () in
  let measured = Interp.run ~config ~inputs:p.inputs p.program in
  let total_instructions = Bst.total_instructions built.Build.bst in
  let model_sel, measured_sel =
    Span.with_ ~name:"hotspot" (fun () ->
        ( Hotspot.select ~criteria ~total_instructions projection.Perf.blocks,
          Hotspot.select ~criteria ~total_instructions measured.Interp.blocks
        ))
  in
  {
    workload;
    machine;
    scale;
    program = p.program;
    inputs = p.inputs;
    hints = p.hints;
    built;
    projection;
    measured;
    model_sel;
    measured_sel;
  }

(** Selection quality of the model's projection against the simulator
    ground truth, for top-[k] spots (§VI). *)
let model_quality (r : run) ~k =
  Quality.quality ~measured:r.measured.Interp.blocks
    ~candidate:r.projection.Perf.blocks ~k

(** Hot path of the model-selected spots through the BET (§V-C). *)
let hot_path (r : run) : Hotpath.t option =
  Span.with_ ~name:"hotpath" (fun () ->
      Hotpath.extract
        ~selection:(Hotspot.spot_set r.model_sel)
        ~node_time:r.projection.Perf.node_time
        ~node_enr:r.projection.Perf.node_enr r.built.Build.root)

(** Measured coverage (fraction of simulated time) captured by the
    model's top-[k] selection — the Modl(m) curve of Figs. 5/10-13. *)
let modl_measured_coverage (r : run) ~k =
  let total = Blockstat.total_time r.measured.Interp.blocks in
  if total <= 0. then 0.
  else
    Quality.captured ~measured:r.measured.Interp.blocks
      ~candidate:r.projection.Perf.blocks ~k
    /. total

(** Projected coverage of the model's top-[k] selection — Modl(p). *)
let modl_projected_coverage (r : run) ~k =
  let total = r.projection.Perf.total_time in
  if total <= 0. then 0.
  else
    Quality.captured ~measured:r.projection.Perf.blocks
      ~candidate:r.projection.Perf.blocks ~k
    /. total

(** Measured coverage of the measured top-[k] selection — Prof. *)
let prof_coverage (r : run) ~k =
  let total = Blockstat.total_time r.measured.Interp.blocks in
  if total <= 0. then 0.
  else
    Quality.captured ~measured:r.measured.Interp.blocks
      ~candidate:r.measured.Interp.blocks ~k
    /. total
