(* Timing, order statistics, memory and result printing shared by the
   workloads.  Every time is wall-clock ([Unix.gettimeofday]); every
   timing metric is a median over repeated ops. *)

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let sorted xs =
  let a = Array.copy xs in
  Array.sort compare a;
  a

(* Linear interpolation between closest ranks, [p] in [0, 100]. *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let h = p /. 100.0 *. float_of_int (n - 1) in
    let lo = truncate h in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = percentile xs 50.0

(* The highest of a fixed ladder of percentiles that still has at least
   ten samples beyond it; [None] when even p75 cannot be supported. *)
let tail_percentile n =
  List.find_opt
    (fun p -> float_of_int n *. (1.0 -. (p /. 100.0)) >= 10.0)
    [ 99.9; 99.0; 95.0; 90.0; 75.0 ]

let sum = Array.fold_left ( +. ) 0.0

let mean xs =
  if Array.length xs = 0 then 0.0 else sum xs /. float_of_int (Array.length xs)

(* Peak resident set size of this process (VmHWM), MiB. *)
let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> nan
  | status ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | kb :: _ -> float_of_string kb /. 1024.0
              | [] -> acc)
          | _ -> acc)
        nan
        (String.split_on_char '\n' status)

(* Minor/major words and collections of the calling domain. *)
type gc = {
  minor_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
}

let gc_now () =
  let s = Gc.quick_stat () in
  {
    minor_words = s.Gc.minor_words;
    major_words = s.Gc.major_words;
    minor_collections = s.Gc.minor_collections;
    major_collections = s.Gc.major_collections;
  }

let gc_delta a b =
  {
    minor_words = b.minor_words -. a.minor_words;
    major_words = b.major_words -. a.major_words;
    minor_collections = b.minor_collections - a.minor_collections;
    major_collections = b.major_collections - a.major_collections;
  }

(* Per-op means of a set of op deltas; a single delta gives its exact
   counts. *)
let gc_metrics gs =
  let m f = mean (Array.map f gs) in
  [
    ("gc.minor_words", m (fun g -> g.minor_words));
    ("gc.major_words", m (fun g -> g.major_words));
    ("gc.minor_collections", m (fun g -> float_of_int g.minor_collections));
    ("gc.major_collections", m (fun g -> float_of_int g.major_collections));
  ]

(* ---- closed loop ---------------------------------------------------- *)

(* One op's outcome: its wall time (checks excluded) and the verdict of
   its output checks. *)
type outcome = { ms : float; verdict : (unit, string) result }

type loop = {
  outcomes : outcome array;
  failures : string list;  (** one message per failed op *)
}

(* Run [op i] for i = 0, 1, ... back to back until [seconds] of wall
   time have passed (at least three ops, so that a median exists).
   [prepare] runs before each op, untimed. *)
let closed_loop ?(prepare = ignore) ~seconds op =
  let deadline = now () +. seconds in
  let acc = ref [] in
  let i = ref 0 in
  while !i < 3 || now () < deadline do
    prepare ();
    acc := op !i :: !acc;
    incr i
  done;
  let outcomes = Array.of_list (List.rev !acc) in
  let failures =
    Array.to_list outcomes
    |> List.filter_map (fun o ->
           match o.verdict with Ok () -> None | Error m -> Some m)
  in
  { outcomes; failures }

let op_ms l = Array.map (fun o -> o.ms) l.outcomes
let failed l = List.length l.failures

(* What a workload hands back to main: its set-up times, its peak RSS
   after the loops, the untraced loop, the traced loop when asked for,
   the per-layer metrics of the traced loop and lines describing the
   run. *)
type run = {
  setups : float array;
  peak_rss_mb : float;
  untraced : loop;
  traced : loop option;
  layers : (string * float) list;
  notes : string list;
}

type env = { seed : int; seconds : float; trace : bool; jobs : int }

(* Long ops start from a compacted heap, as in a fresh process, so that
   one op's garbage does not pace the next op's collections. *)
let fresh_heap () = Gc.compact ()

(* Set-up is timed seven times, each afresh from a compacted heap: four
   times before the measured loops and three times after them, so that
   its median sees the host the ops saw.  [body] runs the loops on the
   state of the last set-up before them.  Peak RSS is read after the
   loops, before the later set-ups add a second state. *)
let with_setups setup body =
  let times = ref [] in
  let once () =
    fresh_heap ();
    let st, dt = timed setup in
    times := dt :: !times;
    st
  in
  let st = ref (once ()) in
  for _ = 2 to 4 do
    st := once ()
  done;
  let r = body !st in
  let rss = peak_rss_mb () in
  for _ = 1 to 3 do
    ignore (once ())
  done;
  (Array.of_list (List.rev !times), rss, r)

(* The untraced and traced windows of one run: the traced run measures
   both halves so that tracing overhead is measured on one host
   state. *)
let windows env = if env.trace then env.seconds /. 2.0 else env.seconds

(* ---- result line ---------------------------------------------------- *)

let json_number x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let result_json ~correct ~attempted ~failed metrics =
  let body =
    String.concat ","
      (List.map
         (fun (name, unit_, v) ->
           Printf.sprintf "\"%s\":{\"value\":%s,\"unit\":\"%s\"}" name
             (json_number v) unit_)
         metrics)
  in
  Printf.sprintf
    "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}" correct
    attempted failed body
