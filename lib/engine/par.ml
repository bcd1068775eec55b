let default_jobs () =
  match Sys.getenv_opt "SPV_JOBS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | _ -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

(* A team is the caller plus [size - 1] helper domains that stay
   blocked on [wake] between batches.  Posting a batch bumps [batch];
   each helper runs its share, and the last one to finish signals
   [idle].  All fields are read and written under [lock], except
   [failures], whose slot [w] only worker [w] writes during a batch. *)
type team = {
  size : int;
  lock : Mutex.t;
  wake : Condition.t;
  idle : Condition.t;
  mutable batch : int;
  mutable share : int -> unit;
  mutable running : int;
  mutable quit : bool;
  failures : exn option array;
}

let helper team w () =
  let seen = ref 0 in
  let rec loop () =
    Mutex.lock team.lock;
    while team.batch = !seen && not team.quit do
      Condition.wait team.wake team.lock
    done;
    if team.batch = !seen then Mutex.unlock team.lock
    else begin
      seen := team.batch;
      let share = team.share in
      Mutex.unlock team.lock;
      (try share w with e -> team.failures.(w) <- Some e);
      Mutex.lock team.lock;
      team.running <- team.running - 1;
      if team.running = 0 then Condition.signal team.idle;
      Mutex.unlock team.lock;
      loop ()
    end
  in
  loop ()

let with_team ~jobs f =
  if jobs <= 0 then invalid_arg "Par.with_team: jobs <= 0";
  let team =
    {
      size = jobs;
      lock = Mutex.create ();
      wake = Condition.create ();
      idle = Condition.create ();
      batch = 0;
      share = ignore;
      running = 0;
      quit = false;
      failures = Array.make jobs None;
    }
  in
  let helpers = ref [] in
  let finish () =
    Mutex.lock team.lock;
    team.quit <- true;
    Condition.broadcast team.wake;
    Mutex.unlock team.lock;
    List.iter Domain.join !helpers;
    (* A joined domain leaves its heap to the next major cycle, and the
       words it promoted are major-GC work paid only in slices, which
       run at minor collections.  Allocation-free sampling loops let
       the calling domain go many calls without one, so without this
       slice the heap grew by each joined domain's leftovers, about
       3 KB per call in a 12-stage MC loop. *)
    if !helpers <> [] then ignore (Gc.major_slice 0 : int)
  in
  (* A failed spawn also goes through [finish], so the helpers already
     started are stopped rather than left waiting. *)
  match
    for k = 1 to jobs - 1 do
      helpers := Domain.spawn (helper team k) :: !helpers
    done;
    f team
  with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

let run_on team tasks =
  let n = Array.length tasks in
  let results = Array.make n None in
  (* Round-robin static assignment: worker [w] runs tasks
     w, w+size, w+2*size, ...  Result slots are disjoint. *)
  let share w =
    let i = ref w in
    while !i < n do
      results.(!i) <- Some (tasks.(!i) ());
      i := !i + team.size
    done
  in
  if team.size = 1 then share 0
  else begin
    Array.fill team.failures 0 team.size None;
    Mutex.lock team.lock;
    team.share <- share;
    team.running <- team.size - 1;
    team.batch <- team.batch + 1;
    Condition.broadcast team.wake;
    Mutex.unlock team.lock;
    (try share 0 with e -> team.failures.(0) <- Some e);
    Mutex.lock team.lock;
    while team.running > 0 do
      Condition.wait team.idle team.lock
    done;
    team.share <- ignore;
    Mutex.unlock team.lock;
    Array.iter (function Some e -> raise e | None -> ()) team.failures
  end;
  Array.map (function Some v -> v | None -> assert false) results

let run ~jobs tasks =
  if jobs <= 0 then invalid_arg "Par.run: jobs <= 0";
  let n = Array.length tasks in
  if n = 0 then [||]
  else with_team ~jobs:(min jobs n) (fun team -> run_on team tasks)
