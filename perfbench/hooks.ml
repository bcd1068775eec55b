(* Hook parity with the CLI: install exactly what bin/spv_cli.ml's main
   installs, so that every workload measures the program users run. *)

let install () =
  Spv_analysis.Bounds.install_engine_check ();
  Spv_analysis.Affine_sta.install_engine_check ();
  Spv_analysis.Certify.install_sizing_check ();
  Spv_analysis.Cones.install_engine_proposal ();
  Spv_analysis.Dominance.install_sizing_prune ();
  if not (Spv_engine.Engine.proposal_provider_installed ()) then
    failwith "hooks: no engine proposal provider after install"

let env_vars =
  [ "SPV_JOBS"; "SPV_CERTIFY_SIZING"; "SPV_DEBUG_BOUNDS"; "SPV_DEBUG_SENSITIVITY" ]

(* The debug variables turn on re-checking oracles that change what is
   timed; a run with either set would not measure the program users
   run.  They count as set unless empty or "0", as the program reads
   them. *)
let debug_vars = [ "SPV_DEBUG_BOUNDS"; "SPV_DEBUG_SENSITIVITY" ]

let is_set v =
  match Sys.getenv_opt v with None | Some ("" | "0") -> false | Some _ -> true

let describe_env () =
  String.concat " "
    (List.map
       (fun v ->
         Printf.sprintf "%s=%s" v
           (match Sys.getenv_opt v with None -> "unset" | Some s -> s))
       env_vars)

(* [Some reason] when the environment would change what is measured. *)
let refuse_reason ~nproc =
  match List.filter is_set debug_vars with
  | v :: _ -> Some (Printf.sprintf "%s is set; unset it to benchmark" v)
  | [] ->
      let default_jobs = Spv_engine.Par.default_jobs () in
      if default_jobs > nproc then
        Some
          (Printf.sprintf
             "default engine jobs %d (SPV_JOBS or the domain count) exceeds nproc %d"
             default_jobs nproc)
      else None
