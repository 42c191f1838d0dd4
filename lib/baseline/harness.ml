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
