module G = Spv_stats.Gaussian
module Rng = Spv_stats.Rng
module Mvn = Spv_stats.Mvn
module Pipeline = Spv_core.Pipeline
module Stage = Spv_core.Stage
module Ssta = Spv_circuit.Ssta
module Netlist = Spv_circuit.Netlist
module Macro = Spv_circuit.Macro

(* ---- evaluation modes ------------------------------------------------ *)

type mode = Flat | Hierarchical

let mode_name = function Flat -> "flat" | Hierarchical -> "hierarchical"

(* ---- evaluation contexts -------------------------------------------- *)

module Ctx = struct
  (* Block-granular state of a hierarchical context.  [h_flat] is the
     flat reference model (memoised per-stage critical-path analyses),
     kept so every estimate can report the model gap between the two
     evaluations as its error bound. *)
  type hier = {
    h_table : Macro.Table.t;
    h_fp : string;
    h_block_gates : int option;
    h_blocks : Macro.block array array;
    h_macros : Macro.t array array;
    h_flat : Pipeline.t;
    h_flat_dist : G.t;
  }

  type gate = {
    tech : Spv_process.Tech.t;
    nets : Netlist.t array;
    output_load : float;
    pitch : float;
    ff : Spv_process.Flipflop.t option;
    analyses : Ssta.stage_analysis array;
    sizes : float array array;
    s_vth : float;
    s_leff : float;
    prune : bool array array option;
    revisions : int array;
        (* per-stage refresh counters: bumped by [refresh_stage] so
           derived caches (the sizing layer's sensitivity enclosures)
           can key on [(stage, revision)] and drop stale entries *)
    hier : hier option;
  }

  type t = {
    pipeline : Pipeline.t;
    dist : G.t;
    mvn : Mvn.t;
    independent : bool;
    gate : gate option;
  }

  let finish ?gate pipeline =
    {
      pipeline;
      dist = Pipeline.delay_distribution pipeline;
      mvn = Pipeline.mvn pipeline;
      independent = Spv_core.Yield.nearly_independent pipeline;
      gate;
    }

  let of_pipeline pipeline = finish pipeline

  (* Apply [f] once per distinct physical array element; repeated
     stages (identical netlist instantiated many times) share the
     result.  Quadratic in distinct elements, which stays tiny. *)
  let memo_by_identity f xs =
    let seen = ref [] in
    Array.map
      (fun x ->
        match List.find_opt (fun (x', _) -> x' == x) !seen with
        | Some (_, y) -> y
        | None ->
            let y = f x in
            seen := (x, y) :: !seen;
            y)
      xs

  let flat_stages ~positions analyses nets =
    Array.mapi
      (fun i net ->
        Stage.make ~name:(Netlist.name net) ~position:positions.(i)
          analyses.(i).Ssta.total)
      nets

  let of_circuits ?(mode = Flat) ?macro_table ?block_gates
      ?(output_load = 4.0) ?(pitch = 1.0) ?ff tech nets =
    if Array.length nets = 0 then
      invalid_arg "Engine.Ctx.of_circuits: no stages";
    let positions =
      Spv_process.Spatial.row_positions ~n:(Array.length nets) ~pitch
    in
    let corr_length = tech.Spv_process.Tech.corr_length in
    let analyses, pipeline, hier =
      match mode with
      | Flat ->
          let analyses =
            Array.map
              (fun net -> Ssta.analyse_stage ~output_load ?ff tech net)
              nets
          in
          let pipeline =
            Pipeline.of_stages ~corr_length
              (flat_stages ~positions analyses nets)
          in
          (analyses, pipeline, None)
      | Hierarchical ->
          let table =
            match macro_table with
            | Some t -> t
            | None -> Macro.Table.create ()
          in
          let fp = Macro.Table.fingerprint ~output_load ?ff tech in
          (* Hash each distinct physical netlist once per build: a
             pipeline instantiating one block RTL many times (the
             hierarchical sweet spot) would otherwise re-hash the same
             size array per stage. *)
          let stage_keys = memo_by_identity (Macro.Table.stage_hash table) nets in
          let entries =
            Array.mapi
              (fun i net ->
                Macro.Table.stage table ~fp ~stage_key:stage_keys.(i)
                  ?target_gates:block_gates ~output_load tech net)
              nets
          in
          let analyses =
            Array.mapi
              (fun i net ->
                Macro.Table.flat_analysis table ~fp ~stage_key:stage_keys.(i)
                  ~output_load ?ff tech net)
              nets
          in
          let hier_stages =
            Array.mapi
              (fun i net ->
                let comb = entries.(i).Macro.Table.se_delay in
                let total =
                  match ff with
                  | None -> comb
                  | Some ff ->
                      Spv_process.Gate_delay.add comb
                        (Spv_process.Flipflop.overhead ff)
                in
                Stage.make ~name:(Netlist.name net) ~position:positions.(i)
                  total)
              nets
          in
          let pipeline = Pipeline.of_stages ~corr_length hier_stages in
          let h_flat =
            Pipeline.of_stages ~corr_length
              (flat_stages ~positions analyses nets)
          in
          let hier =
            {
              h_table = table;
              h_fp = fp;
              h_block_gates = block_gates;
              h_blocks = Array.map (fun e -> e.Macro.Table.se_blocks) entries;
              h_macros = Array.map (fun e -> e.Macro.Table.se_macros) entries;
              h_flat;
              h_flat_dist = Pipeline.delay_distribution h_flat;
            }
          in
          (analyses, pipeline, Some hier)
    in
    finish
      ~gate:
        {
          tech;
          nets;
          output_load;
          pitch;
          ff;
          analyses;
          sizes = memo_by_identity Netlist.sizes_snapshot nets;
          s_vth = Spv_process.Tech.delay_sensitivity_vth tech;
          s_leff = Spv_process.Tech.delay_sensitivity_leff tech;
          prune = None;
          revisions = Array.make (Array.length nets) 0;
          hier;
        }
      pipeline

  let pipeline t = t.pipeline
  let n_stages t = Pipeline.n_stages t.pipeline
  let delay_distribution t = t.dist
  let mvn t = t.mvn
  let nearly_independent t = t.independent
  let gate_level t = t.gate <> None

  let hier_of t =
    match t.gate with Some { hier = Some h; _ } -> Some h | _ -> None

  let mode t = match hier_of t with Some _ -> Hierarchical | None -> Flat
  let macro_table t = Option.map (fun h -> h.h_table) (hier_of t)
  let flat_reference t = Option.map (fun h -> h.h_flat) (hier_of t)

  let require_gate ~where t =
    match t.gate with
    | Some g -> g
    | None ->
        invalid_arg (where ^ ": context has no netlists (built from moments)")

  let check_stage ~where t i =
    if i < 0 || i >= n_stages t then invalid_arg (where ^ ": stage out of range")

  let nominal_sta t i =
    let g = require_gate ~where:"Engine.Ctx.nominal_sta" t in
    check_stage ~where:"Engine.Ctx.nominal_sta" t i;
    g.analyses.(i).Ssta.nominal

  let critical_path t i =
    (nominal_sta t i).Spv_circuit.Sta.critical_path

  let gate_sizes t i =
    let g = require_gate ~where:"Engine.Ctx.gate_sizes" t in
    check_stage ~where:"Engine.Ctx.gate_sizes" t i;
    Array.copy g.sizes.(i)

  let stage_revision t i =
    let g = require_gate ~where:"Engine.Ctx.stage_revision" t in
    check_stage ~where:"Engine.Ctx.stage_revision" t i;
    g.revisions.(i)

  let delay_sensitivities t =
    let g = require_gate ~where:"Engine.Ctx.delay_sensitivities" t in
    (g.s_vth, g.s_leff)

  let tech t = (require_gate ~where:"Engine.Ctx.tech" t).tech
  let output_load t = (require_gate ~where:"Engine.Ctx.output_load" t).output_load
  let pitch t = (require_gate ~where:"Engine.Ctx.pitch" t).pitch
  let flipflop t = (require_gate ~where:"Engine.Ctx.flipflop" t).ff

  let netlist t i =
    let g = require_gate ~where:"Engine.Ctx.netlist" t in
    check_stage ~where:"Engine.Ctx.netlist" t i;
    g.nets.(i)

  let prune_masks t =
    match t.gate with
    | None -> None
    | Some g -> Option.map (Array.map Array.copy) g.prune

  let with_prune t masks =
    let where = "Engine.Ctx.with_prune" in
    let g = require_gate ~where t in
    if Array.length masks <> Array.length g.nets then
      invalid_arg (where ^ ": one mask per stage required");
    Array.iteri
      (fun i mask ->
        let net = g.nets.(i) in
        if Array.length mask <> Netlist.n_nodes net then
          invalid_arg (where ^ ": mask length <> node count");
        if not (Array.exists (fun o -> mask.(o)) (Netlist.outputs net)) then
          invalid_arg (where ^ ": stage with every output masked"))
      masks;
    { t with gate = Some { g with prune = Some (Array.map Array.copy masks) } }

  let without_prune t =
    match t.gate with
    | None | Some { prune = None; _ } -> t
    | Some g -> { t with gate = Some { g with prune = None } }

  let stage_delay_model t i =
    check_stage ~where:"Engine.Ctx.stage_delay_model" t i;
    (Pipeline.stage t.pipeline i).Stage.delay

  let stat_delay t ~stage ~z =
    check_stage ~where:"Engine.Ctx.stat_delay" t stage;
    let g = Stage.gaussian (Pipeline.stage t.pipeline stage) in
    G.mu g +. (z *. G.sigma g)

  let n_blocks t i =
    check_stage ~where:"Engine.Ctx.n_blocks" t i;
    ignore (require_gate ~where:"Engine.Ctx.n_blocks" t);
    match hier_of t with
    | None -> 1 (* a flat stage is one block *)
    | Some h -> Array.length h.h_blocks.(i)

  let stage_macros t i =
    check_stage ~where:"Engine.Ctx.stage_macros" t i;
    ignore (require_gate ~where:"Engine.Ctx.stage_macros" t);
    match hier_of t with
    | None -> invalid_arg "Engine.Ctx.stage_macros: flat context"
    | Some h -> Array.copy h.h_macros.(i)

  (* Gate sizes of stage [i] changed: exactly that stage's criticality
     mask is stale.  Replace it with an all-true (prune-nothing) mask
     and keep the still-sound masks of the other stages. *)
  let drop_stage_mask g i =
    match g.prune with
    | None -> None
    | Some masks ->
        let masks = Array.map Array.copy masks in
        masks.(i) <- Array.make (Array.length masks.(i)) true;
        Some masks

  let refreshed_flat_analysis g i =
    match g.hier with
    | None ->
        Ssta.analyse_stage ~output_load:g.output_load ?ff:g.ff g.tech
          g.nets.(i)
    | Some h ->
        Macro.Table.flat_analysis h.h_table ~fp:h.h_fp
          ~output_load:g.output_load ?ff:g.ff g.tech g.nets.(i)

  let refresh_stage t i =
    let g = require_gate ~where:"Engine.Ctx.refresh_stage" t in
    check_stage ~where:"Engine.Ctx.refresh_stage" t i;
    let a = refreshed_flat_analysis g i in
    let analyses = Array.copy g.analyses in
    analyses.(i) <- a;
    let sizes = Array.copy g.sizes in
    sizes.(i) <- Netlist.sizes_snapshot g.nets.(i);
    let old_stage = Pipeline.stage t.pipeline i in
    let remake total =
      Stage.make ~name:old_stage.Stage.name ~position:old_stage.Stage.position
        total
    in
    let prune = drop_stage_mask g i in
    let revisions = Array.copy g.revisions in
    revisions.(i) <- revisions.(i) + 1;
    match g.hier with
    | None ->
        let pipeline = Pipeline.with_stage t.pipeline i (remake a.Ssta.total) in
        finish ~gate:{ g with analyses; sizes; prune; revisions } pipeline
    | Some h ->
        (* Re-probe the macro table under the stage's new sizes: bands
           whose gates are untouched hit the cache, so only the blocks
           a resize actually reached are re-characterised. *)
        let entry =
          Macro.Table.stage h.h_table ~fp:h.h_fp
            ?target_gates:h.h_block_gates ~output_load:g.output_load g.tech
            g.nets.(i)
        in
        let comb = entry.Macro.Table.se_delay in
        let total =
          match g.ff with
          | None -> comb
          | Some ff ->
              Spv_process.Gate_delay.add comb
                (Spv_process.Flipflop.overhead ff)
        in
        let pipeline = Pipeline.with_stage t.pipeline i (remake total) in
        let h_blocks = Array.copy h.h_blocks in
        h_blocks.(i) <- entry.Macro.Table.se_blocks;
        let h_macros = Array.copy h.h_macros in
        h_macros.(i) <- entry.Macro.Table.se_macros;
        let flat_stage = Pipeline.stage h.h_flat i in
        let h_flat =
          Pipeline.with_stage h.h_flat i
            (Stage.make ~name:flat_stage.Stage.name
               ~position:flat_stage.Stage.position a.Ssta.total)
        in
        let hier =
          {
            h with
            h_blocks;
            h_macros;
            h_flat;
            h_flat_dist = Pipeline.delay_distribution h_flat;
          }
        in
        finish
          ~gate:{ g with analyses; sizes; prune; revisions; hier = Some hier }
          pipeline

  (* Canonical fingerprint of everything the estimators read from a
     context.  Gate-level: the characterisation fingerprint (tech,
     boundary load, flip-flop) plus the per-stage structure+sizes
     hashes; moments-level: the stage delay decompositions, positions
     and the full correlation matrix, all as exact float bits.  Two
     contexts with equal fingerprints answer every estimator query
     identically, which is what lets a long-running service key a
     context cache on the inputs alone. *)
  let fingerprint t =
    let b = Buffer.create 256 in
    let f x = Buffer.add_string b (Printf.sprintf "%.17g;" x) in
    Buffer.add_string b (mode_name (mode t));
    Buffer.add_char b '|';
    (match t.gate with
    | Some g ->
        Buffer.add_string b
          (Macro.Table.fingerprint ~output_load:g.output_load ?ff:g.ff g.tech);
        Buffer.add_char b '|';
        f g.pitch;
        Array.iter
          (fun net ->
            Buffer.add_string b (Printf.sprintf "%016Lx;" (Macro.hash net)))
          g.nets
    | None ->
        Buffer.add_string b "moments|";
        Array.iter
          (fun st ->
            let d = st.Stage.delay in
            f d.Spv_process.Gate_delay.nominal;
            f d.Spv_process.Gate_delay.sigma_inter;
            f d.Spv_process.Gate_delay.sigma_sys;
            f d.Spv_process.Gate_delay.sigma_rand;
            f st.Stage.position.Spv_process.Spatial.x;
            f st.Stage.position.Spv_process.Spatial.y)
          (Pipeline.stages t.pipeline);
        Buffer.add_char b '|';
        let corr = Pipeline.correlation t.pipeline in
        let n = Pipeline.n_stages t.pipeline in
        for i = 0 to n - 1 do
          for j = i + 1 to n - 1 do
            f (Spv_stats.Correlation.get corr i j)
          done
        done);
    Buffer.contents b

  let refresh_block t ~stage ~block =
    let where = "Engine.Ctx.refresh_block" in
    let g = require_gate ~where t in
    check_stage ~where t stage;
    (match hier_of t with
    | None ->
        if block <> 0 then
          invalid_arg (where ^ ": flat stages have exactly one block (0)")
    | Some h ->
        let blocks = h.h_blocks.(stage) in
        if block < 0 || block >= Array.length blocks then
          invalid_arg (where ^ ": block out of range");
        (* Contract: the resize is confined to [block].  Verify by
           re-hashing the other bands against their characterised
           sub-netlists — cheap integer work, no re-analysis. *)
        let fresh = Macro.partition ?target_gates:h.h_block_gates g.nets.(stage) in
        if Array.length fresh <> Array.length blocks then
          invalid_arg (where ^ ": band structure changed");
        Array.iteri
          (fun j fb ->
            if
              j <> block
              && not
                   (Int64.equal
                      (Macro.hash fb.Macro.b_net)
                      (Macro.hash blocks.(j).Macro.b_net))
            then
              invalid_arg
                (Printf.sprintf
                   "%s: block %d also changed; refresh it too (or use \
                    refresh_stage)"
                   where j))
          fresh);
    refresh_stage t stage
end

(* ---- estimator taxonomy --------------------------------------------- *)

type method_ =
  | Analytic_clark
  | Exact_independent
  | Mc
  | Adaptive_mc
  | Importance
  | Quadrature

type stop_reason = Closed_form | Converged | Sample_cap | Fixed_n

type proposal = Legacy | Cone_guided

type proposal_used =
  | Prop_legacy
  | Prop_cone of int
  | Prop_plain

type estimate = {
  value : float;
  std_error : float;
  n_samples : int;
  method_ : method_;
  stop : stop_reason;
  hier_bound : float option;
  ess : float option;
  proposal : proposal_used option;
}

let method_name = function
  | Analytic_clark -> "clark"
  | Exact_independent -> "independent"
  | Mc -> "mc"
  | Adaptive_mc -> "adaptive"
  | Importance -> "importance"
  | Quadrature -> "quadrature"

let all_methods =
  [ Analytic_clark; Exact_independent; Mc; Adaptive_mc; Importance; Quadrature ]

let method_of_string s =
  List.find_opt (fun m -> method_name m = s) all_methods

let stop_reason_name = function
  | Closed_form -> "closed-form"
  | Converged -> "converged"
  | Sample_cap -> "sample-cap"
  | Fixed_n -> "fixed-n"

let proposal_name = function Legacy -> "legacy" | Cone_guided -> "cone"

let proposal_of_string = function
  | "legacy" -> Some Legacy
  | "cone" -> Some Cone_guided
  | _ -> None

let proposal_used_name = function
  | Prop_legacy -> "legacy"
  | Prop_cone _ -> "cone"
  | Prop_plain -> "plain-fallback"

let pp_estimate ppf e =
  (if e.stop = Closed_form then
     Format.fprintf ppf "%.6f (%s, %s)" e.value (method_name e.method_)
       (stop_reason_name e.stop)
   else
     Format.fprintf ppf "%.6f +- %.2g (%s, n=%d, %s)" e.value e.std_error
       (method_name e.method_) e.n_samples (stop_reason_name e.stop));
  (match e.proposal with
  | None -> ()
  | Some (Prop_cone m) -> Format.fprintf ppf " [cone, %d mode%s]" m
      (if m = 1 then "" else "s")
  | Some p -> Format.fprintf ppf " [%s]" (proposal_used_name p));
  (match e.ess with
  | None -> ()
  | Some s -> Format.fprintf ppf " [ess=%.1f]" s);
  match e.hier_bound with
  | None -> ()
  | Some b -> Format.fprintf ppf " [|flat-hier| <= %.3g]" b

let recommended ctx =
  if Ctx.nearly_independent ctx then Exact_independent else Analytic_clark

(* ---- debug-mode postconditions --------------------------------------- *)

(* [Spv_analysis.Bounds] registers interval-bound oracles here (a
   function pointer avoids a dependency cycle: analysis depends on the
   engine, not vice versa).  Checks only run when debug mode is on. *)

type check = Ctx.t -> t_target:float option -> estimate -> (unit, string) result

(* Checks run in registration order; [register_estimate_check] keeps
   its historical replace-the-oracle semantics (it resets the whole
   list), [add_estimate_check] appends. *)
let estimate_checks : check list ref = ref []

let debug_checks =
  ref
    (match Sys.getenv_opt "SPV_DEBUG_BOUNDS" with
    | None | Some "" | Some "0" -> false
    | Some _ -> true)

let set_debug_checks b = debug_checks := b
let debug_checks_enabled () = !debug_checks
let register_estimate_check f = estimate_checks := [ f ]
let add_estimate_check f = estimate_checks := !estimate_checks @ [ f ]

(* ---- analyzer-derived importance proposals --------------------------- *)

(* [Spv_analysis.Cones] registers its failure-cone proposal builder
   here — the same function-pointer pattern as the estimate checks, so
   the engine keeps not depending on the analysis layer.  The provider
   maps (ctx, t_target) to whitened mixture shifts in the stage-MVN's
   Cholesky basis plus unnormalised mixture weights; [None] means no
   cone dominates and the estimator falls back to the legacy
   per-stage mean-shift mixture. *)

type proposal_provider =
  Ctx.t -> t_target:float -> (float array array * float array) option

let proposal_provider : proposal_provider option ref = ref None
let register_proposal_provider f = proposal_provider := Some f
let proposal_provider_installed () = !proposal_provider <> None

let postcondition ~where ctx ~t_target e =
  (if !debug_checks then
     List.iter
       (fun f ->
         match f ctx ~t_target e with
         | Ok () -> ()
         | Error msg ->
             failwith
               (Printf.sprintf "%s: bounds postcondition violated: %s" where
                  msg))
       !estimate_checks);
  e

(* ---- deterministic shard-parallel cores ------------------------------ *)

(* Every sampling estimator draws on [shards] independent RNG streams
   split from one seed.  Shard results are merged in fixed shard order,
   and shard state never depends on which domain ran the shard, so the
   outcome is a pure function of (seed, shards, estimator parameters)
   — [jobs] only changes wall-clock time. *)

let default_shards = 8
let default_seed = 42

let check_positive ~where name v =
  if v <= 0 then
    invalid_arg (Printf.sprintf "%s: %s must be positive" where name)

let resolve_jobs ~where jobs =
  let jobs = match jobs with Some j -> j | None -> Par.default_jobs () in
  check_positive ~where "jobs" jobs;
  jobs

let shard_streams ~seed ~shards = Rng.split (Rng.create ~seed) shards

(* A shard's mutable state (its Rng stream, its sampler's scratch
   vectors, its accumulators) is built by [make rng] inside the task
   that runs the shard, on that task's domain, from a copy of the
   shard's stream made there.  Each shard owns its state and only its
   task touches it.  Building the states side by side on the calling
   domain instead would put neighbouring shards, run by different
   domains, on shared cache lines that both write on every draw
   (false sharing): at jobs=2 that cost more CPU than the second
   domain gained.  The adaptive drivers run their rounds on one
   [Par.with_team], which runs a shard on the same domain every round,
   so the state is forced once and stays there.  (Spawning domains
   for every round also left each one's heap behind: peak RSS grew
   with the number of rounds run.) *)
let shard_states ~seed ~shards make =
  Array.map (fun rng -> lazy (make (Rng.copy rng))) (shard_streams ~seed ~shards)

let fails_trial mvn ~t_target rng =
  let draw = Mvn.max_sampler mvn rng in
  fun () -> draw () > t_target

let passes_trial mvn ~t_target rng =
  let draw = Mvn.max_sampler mvn rng in
  fun () -> draw () <= t_target

let shard_counts n shards =
  Array.init shards (fun i ->
      (n / shards) + if i < n mod shards then 1 else 0)

(* Streaming moments: Welford accumulation per shard, Chan's parallel
   merge across shards (applied in fixed shard order).  The count is
   held as a float so the record is all-float and its fields are
   stored unboxed (an [int] field would make every [m_mean]/[m_m2]
   update allocate); counts stay far below 2^53, where it is exact. *)
type moments = { mutable m_n : float; mutable m_mean : float; mutable m_m2 : float }

let moments_create () = { m_n = 0.0; m_mean = 0.0; m_m2 = 0.0 }

let moments_add m x =
  m.m_n <- m.m_n +. 1.0;
  let d = x -. m.m_mean in
  m.m_mean <- m.m_mean +. (d /. m.m_n);
  m.m_m2 <- m.m_m2 +. (d *. (x -. m.m_mean))

let moments_snapshot m = (int_of_float m.m_n, m.m_mean, m.m_m2)

let moments_merge (n1, mean1, m2a) (n2, mean2, m2b) =
  if n2 = 0 then (n1, mean1, m2a)
  else if n1 = 0 then (n2, mean2, m2b)
  else begin
    let n = n1 + n2 in
    let d = mean2 -. mean1 in
    let fn1 = float_of_int n1 and fn2 = float_of_int n2 in
    let fn = float_of_int n in
    (n, mean1 +. (d *. fn2 /. fn), m2a +. m2b +. (d *. d *. fn1 *. fn2 /. fn))
  end

let mean_se (n, mean, m2) =
  let se =
    if n >= 2 then sqrt (m2 /. float_of_int (n - 1) /. float_of_int n)
    else infinity
  in
  (mean, se)

let count_task trials counts i () =
  let t = Lazy.force trials.(i) in
  let s = ref 0 in
  for _ = 1 to counts.(i) do
    if t () then incr s
  done;
  !s

let bernoulli_fixed ~jobs ~shards ~seed ~n ~make_trial =
  let trials = shard_states ~seed ~shards make_trial in
  let counts = shard_counts n shards in
  let tasks = Array.init shards (count_task trials counts) in
  Array.fold_left ( + ) 0 (Par.run ~jobs tasks)

(* Multi-threshold Bernoulli: one sample stream, one success counter
   per target.  Each trial draws exactly one sample (same draws as a
   single-target [bernoulli_fixed] whose trial is [sample () <= t]),
   so per-target counts are bit-identical to separate single-target
   runs at the same (seed, shards, n) — a T_target sweep pays for the
   sampling once. *)
let bernoulli_fixed_multi ~jobs ~shards ~seed ~n ~make_sample ~targets =
  let samplers = shard_states ~seed ~shards make_sample in
  let counts = shard_counts n shards in
  let nt = Array.length targets in
  let tasks =
    Array.init shards (fun i () ->
        let s = Lazy.force samplers.(i) in
        let succ = Array.make nt 0 in
        for _ = 1 to counts.(i) do
          let x = s () in
          for k = 0 to nt - 1 do
            if x <= targets.(k) then succ.(k) <- succ.(k) + 1
          done
        done;
        succ)
  in
  let per_shard = Par.run ~jobs tasks in
  Array.init nt (fun k ->
      Array.fold_left (fun acc succ -> acc + succ.(k)) 0 per_shard)

let bernoulli_adaptive ~jobs ~shards ~seed ~batch ~min_samples ~rel_se_target
    ~max_samples ~make_trial =
  let trials = shard_states ~seed ~shards make_trial in
  let successes = ref 0 and drawn = ref 0 in
  let stop = ref None in
  Par.with_team ~jobs:(min jobs shards) (fun team ->
      while !stop = None do
        let round = min batch (max_samples - !drawn) in
        let counts = shard_counts round shards in
        let tasks = Array.init shards (count_task trials counts) in
        Array.iter
          (fun s -> successes := !successes + s)
          (Par.run_on team tasks);
        drawn := !drawn + round;
        let fn = float_of_int !drawn in
        let p = float_of_int !successes /. fn in
        let se = sqrt (Float.max 0.0 (p *. (1.0 -. p)) /. fn) in
        if !drawn >= min_samples && p > 0.0 && se /. p <= rel_se_target then
          stop := Some Converged
        else if !drawn >= max_samples then stop := Some Sample_cap
      done);
  let stop = match !stop with Some s -> s | None -> assert false in
  (!successes, !drawn, stop)

let moments_fixed ~jobs ~shards ~seed ~n ~make_trial =
  let trials = shard_states ~seed ~shards make_trial in
  let counts = shard_counts n shards in
  let tasks =
    Array.init shards (fun i () ->
        let t = Lazy.force trials.(i) in
        let m = moments_create () in
        for _ = 1 to counts.(i) do
          moments_add m (t ())
        done;
        moments_snapshot m)
  in
  Array.fold_left moments_merge (0, 0.0, 0.0) (Par.run ~jobs tasks)

let moments_adaptive ~jobs ~shards ~seed ~batch ~min_samples ~rel_se_target
    ~max_samples ~make_trial =
  let states =
    shard_states ~seed ~shards (fun rng -> (make_trial rng, moments_create ()))
  in
  let drawn = ref 0 in
  let merged = ref (0, 0.0, 0.0) in
  let stop = ref None in
  Par.with_team ~jobs:(min jobs shards) (fun team ->
      while !stop = None do
        let round = min batch (max_samples - !drawn) in
        let counts = shard_counts round shards in
        let tasks =
          Array.init shards (fun i () ->
              let t, m = Lazy.force states.(i) in
              for _ = 1 to counts.(i) do
                moments_add m (t ())
              done;
              moments_snapshot m)
        in
        let snaps = Par.run_on team tasks in
        drawn := !drawn + round;
        merged := Array.fold_left moments_merge (0, 0.0, 0.0) snaps;
        let mean, se = mean_se !merged in
        if
          !drawn >= min_samples
          && Float.abs mean > 0.0
          && se /. Float.abs mean <= rel_se_target
        then stop := Some Converged
        else if !drawn >= max_samples then stop := Some Sample_cap
      done);
  let stop = match !stop with Some s -> s | None -> assert false in
  (!merged, stop)

let fill_fixed ~jobs ~shards ~seed ~n ~make_trial =
  let trials = shard_states ~seed ~shards make_trial in
  let counts = shard_counts n shards in
  let offsets = Array.make shards 0 in
  for i = 1 to shards - 1 do
    offsets.(i) <- offsets.(i - 1) + counts.(i - 1)
  done;
  let out = Array.make n 0.0 in
  let tasks =
    Array.init shards (fun i () ->
        let t = Lazy.force trials.(i) in
        for k = offsets.(i) to offsets.(i) + counts.(i) - 1 do
          out.(k) <- t ()
        done)
  in
  ignore (Par.run ~jobs tasks : unit array);
  out

(* ---- estimators ------------------------------------------------------ *)

let closed ~method_ value =
  {
    value;
    std_error = 0.0;
    n_samples = 0;
    method_;
    stop = Closed_form;
    hier_bound = None;
    ess = None;
    proposal = None;
  }

(* One importance-sampling run shared by yield and loss: resolves the
   proposal (analyzer cones when requested and available, the legacy
   per-stage mixture otherwise), detects body targets — max whitened
   shift below [Importance.body_shift_threshold], where mean-shifting
   is statistically inert — and falls back to plain Monte-Carlo with
   the explicit [Prop_plain] marker instead of silently degrading
   (DESIGN §8).  Returns the failure probability side; ESS is the
   self-normalised weight diagnostic (sum w)^2 / sum w^2 computed from
   the merged shard moments. *)
let importance_loss ~where ~proposal ~jobs ~shards ~seed ~n ctx ~t_target =
  let jobs = resolve_jobs ~where jobs in
  check_positive ~where "n" n;
  let mvn = Ctx.mvn ctx in
  let cone_shifts =
    match proposal with
    | Legacy -> None
    | Cone_guided -> (
        match !proposal_provider with
        | None -> None
        | Some f -> f ctx ~t_target)
  in
  let plan =
    match cone_shifts with
    | Some (shifts, alphas) ->
        Spv_stats.Importance.plan ~z_shifts:shifts ~z_alphas:alphas mvn
          ~threshold:t_target
    | None -> Spv_stats.Importance.plan mvn ~threshold:t_target
  in
  if
    Spv_stats.Importance.max_shift_norm plan
    < Spv_stats.Importance.body_shift_threshold
  then begin
    (* Body target: every useful shift is ~0, so reweighted sampling
       is plain sampling with extra variance in the bookkeeping.  Run
       the plain Bernoulli estimator and say so. *)
    let make_trial = fails_trial mvn ~t_target in
    let fails = bernoulli_fixed ~jobs ~shards ~seed ~n ~make_trial in
    let p = float_of_int fails /. float_of_int n in
    let se = sqrt (Float.max 0.0 (p *. (1.0 -. p)) /. float_of_int n) in
    (p, se, float_of_int fails, Prop_plain)
  end
  else begin
    let make_trial = Spv_stats.Importance.weight_sampler plan in
    let n_run, mean, m2 = moments_fixed ~jobs ~shards ~seed ~n ~make_trial in
    let p_fail, se = mean_se (n_run, mean, m2) in
    let se = if Float.is_finite se then se else 0.0 in
    let fn = float_of_int n_run in
    let sum = fn *. mean in
    let sum_sq = m2 +. (fn *. mean *. mean) in
    let ess = if sum_sq > 0.0 then sum *. sum /. sum_sq else 0.0 in
    let used =
      match cone_shifts with
      | Some (shifts, _) -> Prop_cone (Array.length shifts)
      | None -> Prop_legacy
    in
    (p_fail, se, ess, used)
  end

let cdf0 g t = if G.sigma g = 0.0 then (if G.mu g <= t then 1.0 else 0.0) else G.cdf g t
let sf0 g t = if G.sigma g = 0.0 then (if G.mu g <= t then 0.0 else 1.0) else G.sf g t
let clark_yield ctx ~t_target = cdf0 (Ctx.delay_distribution ctx) t_target

(* ---- flat-vs-hierarchical error bounds ------------------------------- *)

(* In hierarchical mode the estimate carries the model gap between the
   context's flat reference (memoised critical-path analyses) and the
   macro-composed model it actually evaluated, measured in the same
   closed-form family as the estimator: the Clark Gaussian for clark
   and the sampling methods (which draw from that model's MVN), the
   independent product for the exact-independent method, quadrature for
   quadrature.  For closed forms the reported flat and hierarchical
   values differ by exactly this gap, so the bound is tight by
   construction; sampling estimators add their own noise on top, which
   callers account for with a z * std_error allowance. *)

let abb_closed_policy = { Spv_core.Adaptive.range = 0.0 }

let hier_gap ~flat_value ~hier_value =
  Some (Float.abs (flat_value -. hier_value))

let hier_bound_yield ctx ~method_ ~t_target =
  match Ctx.hier_of ctx with
  | None -> None
  | Some h -> (
      match method_ with
      | Exact_independent ->
          hier_gap
            ~flat_value:
              (Spv_core.Yield.independent_exact h.Ctx.h_flat ~t_target)
            ~hier_value:
              (Spv_core.Yield.independent_exact (Ctx.pipeline ctx) ~t_target)
      | Quadrature ->
          hier_gap
            ~flat_value:
              (Spv_core.Adaptive.yield_with_abb ~policy:abb_closed_policy
                 h.Ctx.h_flat ~t_target)
            ~hier_value:
              (Spv_core.Adaptive.yield_with_abb ~policy:abb_closed_policy
                 (Ctx.pipeline ctx) ~t_target)
      | Analytic_clark | Mc | Adaptive_mc | Importance ->
          hier_gap
            ~flat_value:(cdf0 h.Ctx.h_flat_dist t_target)
            ~hier_value:(cdf0 (Ctx.delay_distribution ctx) t_target))

let hier_bound_loss ctx ~method_ ~t_target =
  match Ctx.hier_of ctx with
  | None -> None
  | Some h -> (
      match method_ with
      | Exact_independent ->
          hier_gap
            ~flat_value:
              (Spv_core.Yield.independent_exact_loss h.Ctx.h_flat ~t_target)
            ~hier_value:
              (Spv_core.Yield.independent_exact_loss (Ctx.pipeline ctx)
                 ~t_target)
      | Quadrature ->
          hier_gap
            ~flat_value:
              (Spv_core.Adaptive.loss_with_abb ~policy:abb_closed_policy
                 h.Ctx.h_flat ~t_target)
            ~hier_value:
              (Spv_core.Adaptive.loss_with_abb ~policy:abb_closed_policy
                 (Ctx.pipeline ctx) ~t_target)
      | Analytic_clark | Mc | Adaptive_mc | Importance ->
          hier_gap
            ~flat_value:(sf0 h.Ctx.h_flat_dist t_target)
            ~hier_value:(sf0 (Ctx.delay_distribution ctx) t_target))

let hier_bound_mean ctx =
  match Ctx.hier_of ctx with
  | None -> None
  | Some h ->
      hier_gap
        ~flat_value:(G.mu h.Ctx.h_flat_dist)
        ~hier_value:(G.mu (Ctx.delay_distribution ctx))

let attach_yield_bound ctx ~method_ ~t_target e =
  { e with hier_bound = hier_bound_yield ctx ~method_ ~t_target }

let attach_loss_bound ctx ~method_ ~t_target e =
  { e with hier_bound = hier_bound_loss ctx ~method_ ~t_target }

let attach_mean_bound ctx e = { e with hier_bound = hier_bound_mean ctx }

let check_target ~where t_target =
  if not (Float.is_finite t_target) then
    invalid_arg (where ^ ": non-finite t_target")

let yield ?(method_ = Adaptive_mc) ?(proposal = Legacy) ?jobs
    ?(shards = default_shards) ?(seed = default_seed) ?(n = 10_000)
    ?(batch = 1024) ?(min_samples = 1000) ?(rel_se_target = 0.01)
    ?(max_samples = 1_000_000) ctx ~t_target =
  let where = "Engine.yield" in
  check_target ~where t_target;
  check_positive ~where "shards" shards;
  postcondition ~where ctx ~t_target:(Some t_target)
  @@ attach_yield_bound ctx ~method_ ~t_target
  @@
  match method_ with
  | Analytic_clark -> closed ~method_ (clark_yield ctx ~t_target)
  | Exact_independent ->
      closed ~method_
        (Spv_core.Yield.independent_exact (Ctx.pipeline ctx) ~t_target)
  | Quadrature ->
      closed ~method_
        (Spv_core.Adaptive.yield_with_abb
           ~policy:{ Spv_core.Adaptive.range = 0.0 } (Ctx.pipeline ctx)
           ~t_target)
  | Mc ->
      let jobs = resolve_jobs ~where jobs in
      check_positive ~where "n" n;
      let mvn = Ctx.mvn ctx in
      let make_trial = passes_trial mvn ~t_target in
      let successes = bernoulli_fixed ~jobs ~shards ~seed ~n ~make_trial in
      let p = float_of_int successes /. float_of_int n in
      let se = sqrt (Float.max 0.0 (p *. (1.0 -. p)) /. float_of_int n) in
      { value = p; std_error = se; n_samples = n; method_; stop = Fixed_n;
        hier_bound = None; ess = None; proposal = None }
  | Adaptive_mc ->
      let jobs = resolve_jobs ~where jobs in
      check_positive ~where "batch" batch;
      check_positive ~where "min_samples" min_samples;
      check_positive ~where "max_samples" max_samples;
      if not (rel_se_target > 0.0) then
        invalid_arg (where ^ ": rel_se_target must be positive");
      let mvn = Ctx.mvn ctx in
      let make_trial = passes_trial mvn ~t_target in
      let successes, drawn, stop =
        bernoulli_adaptive ~jobs ~shards ~seed ~batch ~min_samples
          ~rel_se_target ~max_samples ~make_trial
      in
      let p = float_of_int successes /. float_of_int drawn in
      let se = sqrt (Float.max 0.0 (p *. (1.0 -. p)) /. float_of_int drawn) in
      { value = p; std_error = se; n_samples = drawn; method_; stop;
        hier_bound = None; ess = None; proposal = None }
  | Importance ->
      let p_fail, se, ess, used =
        importance_loss ~where ~proposal ~jobs ~shards ~seed ~n ctx ~t_target
      in
      {
        value = Float.max 0.0 (Float.min 1.0 (1.0 -. p_fail));
        std_error = se;
        n_samples = n;
        method_;
        stop = Fixed_n;
        hier_bound = None;
        ess = Some ess;
        proposal = Some used;
      }

let yield_targets ?(method_ = Adaptive_mc) ?proposal ?jobs
    ?(shards = default_shards) ?(seed = default_seed) ?(n = 10_000) ?batch
    ?min_samples ?rel_se_target ?max_samples ctx ~t_targets =
  let where = "Engine.yield_targets" in
  if Array.length t_targets = 0 then invalid_arg (where ^ ": no targets");
  Array.iter (check_target ~where) t_targets;
  match method_ with
  | Mc when Array.length t_targets > 1 ->
      let jobs = resolve_jobs ~where jobs in
      check_positive ~where "shards" shards;
      check_positive ~where "n" n;
      let mvn = Ctx.mvn ctx in
      let make_sample = Mvn.max_sampler mvn in
      let successes =
        bernoulli_fixed_multi ~jobs ~shards ~seed ~n ~make_sample
          ~targets:t_targets
      in
      Array.mapi
        (fun k s ->
          let p = float_of_int s /. float_of_int n in
          let se = sqrt (Float.max 0.0 (p *. (1.0 -. p)) /. float_of_int n) in
          postcondition ~where ctx ~t_target:(Some t_targets.(k))
            {
              value = p;
              std_error = se;
              n_samples = n;
              method_;
              stop = Fixed_n;
              hier_bound =
                hier_bound_yield ctx ~method_ ~t_target:t_targets.(k);
              ess = None;
              proposal = None;
            })
        successes
  | _ ->
      Array.map
        (fun t_target ->
          yield ~method_ ?proposal ?jobs ~shards ~seed ~n ?batch ?min_samples
            ?rel_se_target ?max_samples ctx ~t_target)
        t_targets

let clark_loss ctx ~t_target =
  let g = Ctx.delay_distribution ctx in
  if G.sigma g = 0.0 then if G.mu g <= t_target then 0.0 else 1.0
  else G.sf g t_target

let yield_loss ?(method_ = Adaptive_mc) ?(proposal = Legacy) ?jobs
    ?(shards = default_shards) ?(seed = default_seed) ?(n = 10_000)
    ?(batch = 1024) ?(min_samples = 1000) ?(rel_se_target = 0.01)
    ?(max_samples = 1_000_000) ctx ~t_target =
  let where = "Engine.yield_loss" in
  check_target ~where t_target;
  check_positive ~where "shards" shards;
  (* No [postcondition] here: registered oracles check *yield*
     semantics (interval bounds on P_D) and would falsely fire on a
     loss value. *)
  attach_loss_bound ctx ~method_ ~t_target
  @@
  match method_ with
  | Analytic_clark -> closed ~method_ (clark_loss ctx ~t_target)
  | Exact_independent ->
      closed ~method_
        (Spv_core.Yield.independent_exact_loss (Ctx.pipeline ctx) ~t_target)
  | Quadrature ->
      closed ~method_
        (Spv_core.Adaptive.loss_with_abb
           ~policy:{ Spv_core.Adaptive.range = 0.0 } (Ctx.pipeline ctx)
           ~t_target)
  | Mc ->
      let jobs = resolve_jobs ~where jobs in
      check_positive ~where "n" n;
      let mvn = Ctx.mvn ctx in
      let make_trial = fails_trial mvn ~t_target in
      let fails = bernoulli_fixed ~jobs ~shards ~seed ~n ~make_trial in
      let p = float_of_int fails /. float_of_int n in
      let se = sqrt (Float.max 0.0 (p *. (1.0 -. p)) /. float_of_int n) in
      { value = p; std_error = se; n_samples = n; method_; stop = Fixed_n;
        hier_bound = None; ess = None; proposal = None }
  | Adaptive_mc ->
      let jobs = resolve_jobs ~where jobs in
      check_positive ~where "batch" batch;
      check_positive ~where "min_samples" min_samples;
      check_positive ~where "max_samples" max_samples;
      if not (rel_se_target > 0.0) then
        invalid_arg (where ^ ": rel_se_target must be positive");
      let mvn = Ctx.mvn ctx in
      let make_trial = fails_trial mvn ~t_target in
      let fails, drawn, stop =
        bernoulli_adaptive ~jobs ~shards ~seed ~batch ~min_samples
          ~rel_se_target ~max_samples ~make_trial
      in
      let p = float_of_int fails /. float_of_int drawn in
      let se = sqrt (Float.max 0.0 (p *. (1.0 -. p)) /. float_of_int drawn) in
      { value = p; std_error = se; n_samples = drawn; method_; stop;
        hier_bound = None; ess = None; proposal = None }
  | Importance ->
      let p_fail, se, ess, used =
        importance_loss ~where ~proposal ~jobs ~shards ~seed ~n ctx ~t_target
      in
      {
        value = Float.max 0.0 (Float.min 1.0 p_fail);
        std_error = se;
        n_samples = n;
        method_;
        stop = Fixed_n;
        hier_bound = None;
        ess = Some ess;
        proposal = Some used;
      }

let delay_mean ?(method_ = Adaptive_mc) ?jobs ?(shards = default_shards)
    ?(seed = default_seed) ?(n = 10_000) ?(batch = 1024) ?(min_samples = 1000)
    ?(rel_se_target = 0.01) ?(max_samples = 1_000_000) ctx =
  let where = "Engine.delay_mean" in
  check_positive ~where "shards" shards;
  postcondition ~where ctx ~t_target:None
  @@ attach_mean_bound ctx
  @@
  match method_ with
  | Analytic_clark -> closed ~method_ (G.mu (Ctx.delay_distribution ctx))
  | Mc ->
      let jobs = resolve_jobs ~where jobs in
      check_positive ~where "n" n;
      let mvn = Ctx.mvn ctx in
      let make_trial = Mvn.max_sampler mvn in
      let merged = moments_fixed ~jobs ~shards ~seed ~n ~make_trial in
      let mean, se = mean_se merged in
      let se = if Float.is_finite se then se else 0.0 in
      { value = mean; std_error = se; n_samples = n; method_; stop = Fixed_n;
        hier_bound = None; ess = None; proposal = None }
  | Adaptive_mc ->
      let jobs = resolve_jobs ~where jobs in
      check_positive ~where "batch" batch;
      check_positive ~where "min_samples" min_samples;
      check_positive ~where "max_samples" max_samples;
      if not (rel_se_target > 0.0) then
        invalid_arg (where ^ ": rel_se_target must be positive");
      let mvn = Ctx.mvn ctx in
      let make_trial = Mvn.max_sampler mvn in
      let merged, stop =
        moments_adaptive ~jobs ~shards ~seed ~batch ~min_samples
          ~rel_se_target ~max_samples ~make_trial
      in
      let (drawn, _, _) = merged in
      let mean, se = mean_se merged in
      let se = if Float.is_finite se then se else 0.0 in
      { value = mean; std_error = se; n_samples = drawn; method_; stop;
        hier_bound = None; ess = None; proposal = None }
  | (Exact_independent | Importance | Quadrature) as m ->
      invalid_arg
        (Printf.sprintf "%s: method %s unsupported (use clark, mc or adaptive)"
           where (method_name m))

let sample_delays ?jobs ?(shards = default_shards) ?(seed = default_seed) ctx
    ~n =
  let where = "Engine.sample_delays" in
  let jobs = resolve_jobs ~where jobs in
  check_positive ~where "shards" shards;
  check_positive ~where "n" n;
  let mvn = Ctx.mvn ctx in
  let make_trial = Mvn.max_sampler mvn in
  fill_fixed ~jobs ~shards ~seed ~n ~make_trial

let gate_sampler ~where ?exact ctx =
  let g = Ctx.require_gate ~where ctx in
  fun () ->
    Ssta.sampler ~output_load:g.Ctx.output_load ?exact ~pitch:g.Ctx.pitch
      ?ff:g.Ctx.ff ?active:g.Ctx.prune g.Ctx.tech g.Ctx.nets

let gate_level_delays ?exact ?jobs ?(shards = default_shards)
    ?(seed = default_seed) ctx ~n =
  let where = "Engine.gate_level_delays" in
  let jobs = resolve_jobs ~where jobs in
  check_positive ~where "shards" shards;
  check_positive ~where "n" n;
  let fresh_sampler = gate_sampler ~where ?exact ctx in
  let make_trial rng =
    let smp = fresh_sampler () in
    fun () -> Ssta.draw_pipeline_delay smp rng
  in
  fill_fixed ~jobs ~shards ~seed ~n ~make_trial

let gate_level_stage_samples ?exact ?jobs ?(shards = default_shards)
    ?(seed = default_seed) ctx ~n =
  let where = "Engine.gate_level_stage_samples" in
  let jobs = resolve_jobs ~where jobs in
  check_positive ~where "shards" shards;
  check_positive ~where "n" n;
  let fresh_sampler = gate_sampler ~where ?exact ctx in
  let stages = Ctx.n_stages ctx in
  let out = Array.init stages (fun _ -> Array.make n 0.0) in
  let streams = shard_streams ~seed ~shards in
  let counts = shard_counts n shards in
  let offsets = Array.make shards 0 in
  for i = 1 to shards - 1 do
    offsets.(i) <- offsets.(i - 1) + counts.(i - 1)
  done;
  let tasks =
    Array.init shards (fun i () ->
        let smp = fresh_sampler () and rng = Rng.copy streams.(i) in
        for k = offsets.(i) to offsets.(i) + counts.(i) - 1 do
          let delays = Ssta.draw_stage_delays smp rng in
          for s = 0 to stages - 1 do
            out.(s).(k) <- delays.(s)
          done
        done)
  in
  ignore (Par.run ~jobs tasks : unit array);
  out

let abb_mc_yield ?policy ?jobs ?(shards = default_shards)
    ?(seed = default_seed) ctx ~n ~t_target =
  let where = "Engine.abb_mc_yield" in
  check_target ~where t_target;
  let jobs = resolve_jobs ~where jobs in
  check_positive ~where "shards" shards;
  check_positive ~where "n" n;
  let sm = Spv_core.Adaptive.sampler ?policy (Ctx.pipeline ctx) in
  let make_trial rng () = Spv_core.Adaptive.sample_delay sm rng <= t_target in
  let successes = bernoulli_fixed ~jobs ~shards ~seed ~n ~make_trial in
  let p = float_of_int successes /. float_of_int n in
  let se = sqrt (Float.max 0.0 (p *. (1.0 -. p)) /. float_of_int n) in
  {
    value = p;
    std_error = se;
    n_samples = n;
    method_ = Mc;
    stop = Fixed_n;
    hier_bound = None;
    ess = None;
    proposal = None;
  }
