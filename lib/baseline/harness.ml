let receiver () = Radiosim.Process.silent ()

let first_reception ~dual ~scheduler ~nodes ~receiver ~max_rounds =
  let result = ref None in
  let stop record =
    match record.Radiosim.Trace.delivered.(receiver) with
    | Some (Localcast.Messages.Data _) ->
        if !result = None then result := Some record.Radiosim.Trace.round;
        true
    | Some (Localcast.Messages.Seed_msg _) | None -> false
  in
  let env = Radiosim.Env.null ~name:"baseline" () in
  let (_ : int) =
    Radiosim.Engine.run ~stop ~dual ~scheduler ~nodes ~env ~rounds:max_rounds ()
  in
  !result

type coverage = { source : int; first : int array; mutable covered : int }

let coverage ~n ~source =
  if source < 0 || source >= n then
    invalid_arg "Harness.coverage: source out of range";
  let first = Array.make n max_int in
  first.(source) <- 0;
  { source; first; covered = 1 }

let observe cov record =
  Array.iteri
    (fun v -> function
      | Some (Localcast.Messages.Data p)
        when p.Localcast.Messages.src = cov.source && cov.first.(v) = max_int ->
          cov.first.(v) <- record.Radiosim.Trace.round;
          cov.covered <- cov.covered + 1
      | _ -> ())
    record.Radiosim.Trace.delivered
