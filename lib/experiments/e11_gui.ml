(* E11 — peer vs hierarchical structure (Section 3.1): "Peer
   subsystems can be structured to send messages back and forth on a
   peer basis, instead of requiring a false hierarchical relationship.
   This is particularly desirable for GUI programming."

   Same interactive workload, two structures; the app-initiated
   update latency is where the hierarchy hurts (updates wait for the
   display loop to poll). *)

open Exp_common
module Gui = Chorus_workload.Gui
module Histogram = Chorus_util.Histogram

let config ~quick =
  { Gui.default_config with
    input_events = pick ~quick 150 1_000;
    app_updates = pick ~quick 150 1_000 }

let run ~quick ~seed =
  let cfg = config ~quick in
  let peer, _ = run ~seed ~cores:8 (fun () -> Gui.run_peer cfg) in
  let hier, _ = run ~seed ~cores:8 (fun () -> Gui.run_hierarchical cfg) in
  let t =
    Tablefmt.create
      ~title:"E11: GUI structure, app-initiated update latency (cycles)"
      ~columns:
        [ ("structure", Tablefmt.Left);
          ("update mean", Tablefmt.Right);
          ("update p99", Tablefmt.Right);
          ("input mean", Tablefmt.Right);
          ("transfers", Tablefmt.Right) ]
  in
  let row name (r : Gui.result) =
    Tablefmt.add_row t
      [ name;
        Tablefmt.cell_float (Histogram.mean r.Gui.update_latency);
        string_of_int (Histogram.percentile r.Gui.update_latency 99.0);
        Tablefmt.cell_float (Histogram.mean r.Gui.input_latency);
        string_of_int r.Gui.control_transfers ]
  in
  row "peer (channels + choice)" peer;
  row "hierarchical (callbacks+poll)" hier;
  [ t ]
