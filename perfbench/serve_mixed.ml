(* serve-mixed: a request sequence generated from the seed, sent one at
   a time to an in-process Serve daemon (default capacity 32, jobs 1,
   workers 1).  Each request names two of four ISCAS circuits and one
   of twelve inter-die Vth sigmas drawn with skew, so the working set
   (52 contexts) exceeds the cache.  The estimator kernel is nearly
   idle; the time goes to circuit lookup in grid parse, cache keying,
   context builds on a miss and row emission. *)

module Engine = Spv_engine.Engine
module Grid = Spv_workload.Grid
module Sweep = Spv_workload.Sweep
module Serve = Spv_workload.Serve
module M = Measure

let circuits = [| "c432"; "c1908"; "c2670"; "c3540" |]
let vths = Array.init 12 (fun i -> 30.0 +. (5.0 *. float_of_int i))

(* Zipf(1) over the twelve Vth values: the k-th is drawn with weight
   1/(k+1). *)
let zipf_cdf =
  let w = Array.init (Array.length vths) (fun k -> 1.0 /. float_of_int (k + 1)) in
  let total = M.sum w in
  let acc = ref 0.0 in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let grid_text a b mv =
  Printf.sprintf
    "circuit %s\ncircuit %s\ninter_vth_mv %g\ntargets 300:1100:41\nmethod clark,independent\n"
    a b mv

let truncate_every = 50

type request = {
  id : string;
  line : string;
  text : string;  (** the grid text *)
  names : string * string;
  mv : float;
  truncated : bool;
}

(* The i-th request of the sequence; draws from [rng] in order. *)
let next_request ~seed rng i =
  let a = Random.State.int rng 4 in
  let b = (a + 1 + Random.State.int rng 3) mod 4 in
  let u = Random.State.float rng 1.0 in
  let rec find k =
    if k >= Array.length zipf_cdf - 1 || u < zipf_cdf.(k) then k
    else find (k + 1)
  in
  let k = find 0 in
  let names = (circuits.(a), circuits.(b)) in
  let mv = vths.(k) in
  let text = grid_text (fst names) (snd names) mv in
  let id = Printf.sprintf "r%d" i in
  let full =
    Serve.request_line ~seed ~jobs:1 ~workers:1 ~request_id:id ~grid:text ()
  in
  let truncated = (i + 1) mod truncate_every = 0 in
  let line = if truncated then String.sub full 0 (String.length full / 2) else full in
  { id; line; text; names; mv; truncated }

(* ---- shared, check-side state --------------------------------------- *)

(* A context is named by its circuit and its inter-die Vth sigma
   ([None] for the nominal process). *)
type key = string * float option

let key_of (source : Grid.source) (p : Grid.process) : key =
  (Grid.source_label source, p.Grid.inter_vth_mv)

(* The cache the daemon should behave as: an LRU of [cap] keys, most
   recent first.  Written here, apart from [Serve.Cache], so that the
   counter check does not reuse the code it checks. *)
module Lru = struct
  type t = {
    cap : int;
    mutable recent : key list;
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
  }

  let create cap = { cap; recent = []; hits = 0; misses = 0; evictions = 0 }

  (* Touches [k]; true on a miss. *)
  let probe t k =
    let hit = List.mem k t.recent in
    t.recent <- k :: List.filter (fun k' -> k' <> k) t.recent;
    if hit then t.hits <- t.hits + 1
    else (
      t.misses <- t.misses + 1;
      if List.length t.recent > t.cap then (
        t.recent <- List.filteri (fun i _ -> i < t.cap) t.recent;
        t.evictions <- t.evictions + 1));
    not hit

  let counts t = { Checks.hits = t.hits; misses = t.misses; evictions = t.evictions }
end

(* Built once before set-up: the circuits, the one-shot reference rows
   per grid text, and the contexts the traced replay reuses. *)
type oracle = {
  nets : (string, Spv_circuit.Netlist.t) Hashtbl.t;
  refs : (string, Digest.t * int) Hashtbl.t;
  ctxs : (key, Engine.Ctx.t) Hashtbl.t;
}

let make_oracle () =
  let nets = Hashtbl.create 4 in
  Array.iter
    (fun name ->
      match Grid.builtin_lookup name with
      | Ok n -> Hashtbl.replace nets name n
      | Error e -> failwith e)
    circuits;
  { nets; refs = Hashtbl.create 256; ctxs = Hashtbl.create 64 }

let memo_lookup o name =
  match Hashtbl.find_opt o.nets name with
  | Some n -> Ok n
  | None -> Error ("unknown circuit " ^ name)

(* The one-shot rows for a grid: MD5 of [Sweep.to_jsonl] and the row
   count. *)
let reference o ~seed text =
  match Hashtbl.find_opt o.refs text with
  | Some r -> r
  | None ->
      let res = Sweep.run ~jobs:1 ~seed (Checks.parse text) in
      let r = (Digest.string (Sweep.to_jsonl res), Array.length res.Sweep.rows) in
      Hashtbl.replace o.refs text r;
      r

(* The (source, process) groups of a request in the daemon's probe
   order: circuits as named, the nominal process first. *)
let groups o (r : request) =
  let procs =
    [
      Grid.nominal;
      { Grid.p_label = Printf.sprintf "vth%gmv" r.mv; inter_vth_mv = Some r.mv };
    ]
  in
  List.concat_map
    (fun name ->
      let source = Grid.Circuit { label = name; net = Hashtbl.find o.nets name } in
      List.map (fun p -> (source, p)) procs)
    [ fst r.names; snd r.names ]

(* ---- daemon state --------------------------------------------------- *)

(* Lookup spans inside the daemon, recorded only while tracing. *)
type spans = {
  mutable tracing : bool;
  mutable lookup_s : float;
  mutable lookups : int;
}

type state = {
  daemon : Serve.t;
  shadow : Lru.t;  (** fed the same keys in the same order *)
  rng : Random.State.t;
  mutable next : int;
  spans : spans;
}

let capacity = 32

let create ~seed =
  let spans = { tracing = false; lookup_s = 0.0; lookups = 0 } in
  let lookup name =
    if not spans.tracing then Grid.builtin_lookup name
    else
      let r, dt = M.timed (fun () -> Grid.builtin_lookup name) in
      spans.lookup_s <- spans.lookup_s +. dt;
      spans.lookups <- spans.lookups + 1;
      r
  in
  {
    daemon = Serve.create ~lookup ();
    shadow = Lru.create capacity;
    rng = Random.State.make [| seed |];
    next = 0;
    spans;
  }

type reply = {
  req : request;
  bytes : int;  (** response size, newlines included *)
  wall : float;
  gc : M.gc;
  misses : (Grid.source * Grid.process) list;  (** shadow misses *)
  evictions : int;  (** shadow evictions *)
  verdict : (unit, string) result;
}

let handle ?(check = true) o ~seed st =
  let req = next_request ~seed st.rng st.next in
  st.next <- st.next + 1;
  let g0 = M.gc_now () in
  let lines, wall = M.timed (fun () -> Serve.handle_line st.daemon req.line) in
  let gc = M.gc_delta g0 (M.gc_now ()) in
  let bytes = List.fold_left (fun acc l -> acc + String.length l + 1) 0 lines in
  if req.truncated then
    { req; bytes; wall; gc; misses = []; evictions = 0; verdict = Checks.truncated lines }
  else
    let ev0 = st.shadow.Lru.evictions in
    let misses =
      List.filter (fun (src, p) -> Lru.probe st.shadow (key_of src p)) (groups o req)
    in
    let verdict =
      if not check then Ok ()
      else
      match
        Checks.served ~request_id:req.id ~expected:(reference o ~seed req.text)
          ~n_contexts:4 lines
      with
      | Error _ as e -> e
      | Ok c ->
          Checks.cache_counters ~request_id:req.id ~capacity:st.shadow.Lru.cap c
            ~predicted:(Lru.counts st.shadow)
    in
    { req; bytes; wall; gc; misses; evictions = st.shadow.Lru.evictions - ev0; verdict }

(* Set-up: a fresh daemon and request sequence, then the first
   [warmup] requests, which fill the cache.  Set-up replies are not
   checked, so that set-up time holds no check work. *)
let warmup = 256

let setup o ~seed () =
  Hooks.install ();
  let st = create ~seed in
  while st.next < warmup do
    ignore (handle ~check:false o ~seed st)
  done;
  if Serve.Cache.length (Serve.cache st.daemon) < capacity then
    failwith "serve-mixed: the cache is not full after set-up";
  st

(* ---- tracing -------------------------------------------------------- *)

type traced = {
  reply : reply;
  lookup : float;
  lookups : int;
  parse : float;
  ctx : float;
  engine : float;
  emit : float;
  emit_bytes : int;
}

(* One request with the lookup spans measured inside the daemon, then
   the layers it does not expose replayed through their public calls
   on the same input: grid parse, the context builds of the groups the
   cache missed, the engine pass and the row emission. *)
let traced_handle o ~seed st =
  let sp = st.spans in
  sp.tracing <- true;
  sp.lookup_s <- 0.0;
  sp.lookups <- 0;
  let reply = handle o ~seed st in
  sp.tracing <- false;
  let lookup = sp.lookup_s and lookups = sp.lookups in
  if reply.req.truncated then
    {
      reply;
      lookup;
      lookups;
      parse = 0.0;
      ctx = 0.0;
      engine = 0.0;
      emit = 0.0;
      emit_bytes = 0;
    }
  else
    let grid, parse =
      M.timed (fun () -> Checks.parse ~lookup:(memo_lookup o) reply.req.text)
    in
    let build source p =
      let c = Sweep.ctx_for ~tech:Checks.tech source p in
      Hashtbl.replace o.ctxs (key_of source p) c;
      c
    in
    let ctx =
      List.fold_left
        (fun acc (source, p) -> acc +. snd (M.timed (fun () -> build source p)))
        0.0 reply.misses
    in
    let ctx_provider source p =
      match Hashtbl.find_opt o.ctxs (key_of source p) with
      | Some c -> (c, (0, 0))
      | None -> (build source p, (0, 0))
    in
    List.iter (fun (s, p) -> ignore (ctx_provider s p)) (groups o reply.req);
    let res, engine =
      M.timed (fun () -> Sweep.run ~jobs:1 ~seed ~ctx_provider grid)
    in
    let jsonl, emit = M.timed (fun () -> Sweep.to_jsonl res) in
    { reply; lookup; lookups; parse; ctx; engine; emit; emit_bytes = String.length jsonl }

(* Per-request means over the traced requests that were not truncated;
   hit and miss request times are medians. *)
let layers (ts : traced list) =
  let valid = Array.of_list (List.filter (fun t -> not t.reply.req.truncated) ts) in
  let m f = M.mean (Array.map f valid) in
  let ms f = 1000.0 *. m f in
  let accounted t = t.lookup +. t.parse +. t.ctx +. t.engine +. t.emit in
  let nmiss t = float_of_int (List.length t.reply.misses) in
  let med_ms pred =
    M.median
      (Array.of_list
         (List.filter_map
            (fun t -> if pred t then Some (t.reply.wall *. 1000.0) else None)
            (Array.to_list valid)))
  in
  let gcs = Array.map (fun t -> t.reply.gc) valid in
  [
    ("grid.parse_ms", ms (fun t -> t.parse));
    ("grid.lookup_ms", ms (fun t -> t.lookup));
    ("grid.lookups", m (fun t -> float_of_int t.lookups));
    ("ctx.builds", m nmiss);
    ("ctx.build_ms", ms (fun t -> t.ctx));
    ("engine.ms", ms (fun t -> t.engine));
    ("engine.closed_form_ms", ms (fun t -> t.engine));
    ("emit.ms", ms (fun t -> t.emit));
    ("emit.bytes", m (fun t -> float_of_int t.emit_bytes));
    ("serve.cache_hit_ratio", 1.0 -. (m nmiss /. 4.0));
    ("serve.cache_misses", m nmiss);
    ("serve.cache_evictions", m (fun t -> float_of_int t.reply.evictions));
    ("serve.hit_request_ms", med_ms (fun t -> t.reply.misses = []));
    ("serve.miss_request_ms", med_ms (fun t -> t.reply.misses <> []));
    ("serve.response_bytes", m (fun t -> float_of_int t.reply.bytes));
    ("serve.self_ms", ms (fun t -> t.reply.wall -. accounted t));
    ("trace.coverage", m accounted /. m (fun t -> t.reply.wall));
  ]
  @ M.gc_metrics gcs

let outcome (r : reply) = { M.ms = r.wall *. 1000.0; verdict = r.verdict }

let run (env : M.env) =
  let seed = env.M.seed in
  let o = make_oracle () in
  let setups, peak_rss_mb, (st, untraced, traced, layers) =
    M.with_setups (setup o ~seed) (fun st ->
        let untraced =
          M.closed_loop ~seconds:(M.windows env) (fun _ -> outcome (handle o ~seed st))
        in
        if not env.M.trace then (st, untraced, None, [])
        else
          let ts = ref [] in
          let loop =
            M.closed_loop ~seconds:(M.windows env) (fun _ ->
                let t = traced_handle o ~seed st in
                ts := t :: !ts;
                t.reply |> outcome)
          in
          (st, untraced, Some loop, layers !ts))
  in
  let c = Serve.cache st.daemon in
  {
    M.setups;
    peak_rss_mb;
    untraced;
    traced;
    layers;
    notes =
      [
        Printf.sprintf
          "input: closed loop, 1 client; each request: 2 of 4 ISCAS \
           circuits x 1 of 12 Vth sigmas (Zipf), targets 300:1100:41, \
           clark+independent; every %dth line truncated; daemon capacity \
           %d, jobs 1, workers 1, request seed %d"
          truncate_every capacity seed;
        Printf.sprintf
          "daemon cache after %d requests: %d hits, %d misses, %d evictions (hit ratio %.3f)"
          st.next (Serve.Cache.hits c) (Serve.Cache.misses c)
          (Serve.Cache.evictions c)
          (float_of_int (Serve.Cache.hits c)
          /. float_of_int (Serve.Cache.hits c + Serve.Cache.misses c));
      ];
  }
