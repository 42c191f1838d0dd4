(* One derived seed per trial.  The affine combination separates the
   (master seed, trial) pairs; routing it through the SplitMix64
   finalizer then decorrelates them, so nearby master seeds (or salted
   variants of one master seed) cannot yield overlapping trial streams
   the way the raw affine form could. *)
let derived_seed ~seed ~trial =
  let affine = (seed * 0x9E3779B1) + (trial * 0x85EBCA77) + 0x165667B1 in
  (* [to_int] keeps the low 63 bits — deterministic on 64-bit platforms. *)
  Int64.to_int (Prng.Rng.mix (Int64.of_int affine))

let trials ~seed ~n f =
  List.init n (fun trial -> f ~trial ~seed:(derived_seed ~seed ~trial))

let trials_par ?(domains = 1) ~seed ~n f =
  if domains < 1 then invalid_arg "Experiment.trials_par: domains must be >= 1";
  let workers = min domains n in
  if workers <= 1 then trials ~seed ~n f
  else begin
    (* Work-stealing loop over the trial indices: every worker claims
       the next chunk from a shared atomic cursor until the range is
       drained, so a few slow trials cannot strand the rest of a static
       block on one domain.  Each trial's seed depends only on its
       index and each result lands in its own slot, so the claiming
       order cannot affect any result (bit-identical at any domain
       count) and the unsynchronized writes below are race-free.  The
       chunk size amortizes the fetch-and-add without costing balance:
       at least 8 claims per worker on large n, single-trial claims on
       small n. *)
    let results = Array.make n None in
    let chunk = max 1 (n / (workers * 8)) in
    let cursor = Atomic.make 0 in
    (* Failure protocol: the first trial to raise parks its exception
       (with backtrace) in [failure] and flips [poisoned]; every worker
       checks the flag per claim and per trial, so the remaining chunks
       are abandoned quickly but no worker is left unjoined.  Workers
       themselves never exit exceptionally — the capture is re-raised
       on the calling domain after all joins, preserving the original
       backtrace instead of the mangled one [Domain.join] forwards. *)
    let poisoned = Atomic.make false in
    let failure = Atomic.make None in
    let rec worker () =
      if not (Atomic.get poisoned) then begin
        let lo = Atomic.fetch_and_add cursor chunk in
        if lo < n then begin
          let hi = min n (lo + chunk) in
          (try
             let trial = ref lo in
             while !trial < hi && not (Atomic.get poisoned) do
               let t = !trial in
               results.(t) <- Some (f ~trial:t ~seed:(derived_seed ~seed ~trial:t));
               incr trial
             done
           with e ->
             let bt = Printexc.get_raw_backtrace () in
             if Atomic.compare_and_set failure None (Some (e, bt)) then ();
             Atomic.set poisoned true);
          worker ()
        end
      end
    in
    (* The spawning domain participates too. *)
    let spawned = List.init (workers - 1) (fun _ -> Domain.spawn worker) in
    Parallel.Budget.note_spawned (workers - 1);
    worker ();
    List.iter Domain.join spawned;
    Parallel.Budget.note_joined (workers - 1);
    match Atomic.get failure with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None ->
        List.init n (fun trial ->
            match results.(trial) with
            | Some r -> r
            | None -> assert false (* the cursor covers every index exactly once *))
  end

let count p l = List.length (List.filter p l)

let float_samples f l = List.map f l

(* Monotonic wall-clock (CLOCK_MONOTONIC via bechamel's stub, ns):
   [Unix.gettimeofday] is wall time and steps backwards under NTP
   adjustment, which produced negative "elapsed" readings in long
   sweeps. *)
let time f =
  let start = Monotonic_clock.now () in
  let result = f () in
  let stop = Monotonic_clock.now () in
  (result, Int64.to_float (Int64.sub stop start) /. 1e9)
