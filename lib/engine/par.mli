(** Deterministic fork/join over OCaml 5 domains.

    A tiny static scheduler: [run ~jobs tasks] executes every task
    exactly once, on at most [jobs] domains, and returns the results in
    task order.  Task assignment is static (round-robin), so which
    domain runs which task is a pure function of [(jobs, n_tasks)] —
    but, more importantly, each task owns its state and its result
    slot, so the {e results} never depend on [jobs] at all.  The
    engine exploits this: its Monte-Carlo shards are tasks, hence
    [jobs = 1] and [jobs = 4] are bit-for-bit identical. *)

val default_jobs : unit -> int
(** Worker count used when a caller does not say: the [SPV_JOBS]
    environment variable when set to a positive integer, otherwise
    [Domain.recommended_domain_count ()]. *)

val run : jobs:int -> (unit -> 'a) array -> 'a array
(** [run ~jobs tasks] runs every task once and returns their results
    in task order.  [jobs <= 1] runs sequentially on the calling
    domain (no spawns); otherwise [min jobs (Array.length tasks) - 1]
    helper domains are spawned.  If any task raises, all domains are
    still joined and the first exception (in task order: calling
    domain first, then helpers) is re-raised.  Raises
    [Invalid_argument] when [jobs <= 0]. *)

type team
(** A fixed set of domains, the caller and [size - 1] helpers, that
    runs batches of tasks one after another.  Helpers wait between
    batches instead of being spawned for each one. *)

val with_team : jobs:int -> (team -> 'a) -> 'a
(** [with_team ~jobs f] spawns [jobs - 1] helper domains, applies [f]
    to the team, then stops and joins the helpers, also when [f]
    raises.  Use it for a run of dependent batches, such as the
    adaptive estimators' rounds.  A team must not be shared with
    another domain, and [run_on] must not be called from its own
    tasks.  Raises [Invalid_argument] when [jobs <= 0]. *)

val run_on : team -> (unit -> 'a) array -> 'a array
(** [run_on team tasks] is {!run} on the team's domains: task [i]
    always runs on worker [i mod size] (worker 0 is the caller), so a
    shard's state stays on one domain across batches.  Results and
    exceptions follow {!run}. *)
