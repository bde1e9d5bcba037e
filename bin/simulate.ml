(* Ad-hoc scenario runner: pick a scheduler, a governor and a load level,
   simulate the paper's V20/V70 profile and print the phase summary with
   ASCII plots — the quickest way to explore the system interactively. *)

open Cmdliner

let sched_conv =
  Arg.enum
    [
      ("credit", Experiments.Scenario.Credit);
      ("sedf", Experiments.Scenario.Sedf);
      ("credit2", Experiments.Scenario.Credit2);
      ("pas", Experiments.Scenario.Pas_scheduler);
    ]

let gov_conv =
  Arg.enum
    [
      ("performance", Experiments.Scenario.Performance);
      ("ondemand", Experiments.Scenario.Stock_ondemand);
      ("stable-ondemand", Experiments.Scenario.Stable_ondemand);
      ("powersave", Experiments.Scenario.Powersave);
      ("none", Experiments.Scenario.No_governor);
    ]

let load_conv =
  Arg.enum [ ("exact", Experiments.Scenario.Exact); ("thrashing", Experiments.Scenario.Thrashing) ]

let run sched gov load scale csv =
  let module S = Experiments.Scenario in
  if sched = S.Pas_scheduler && gov <> S.No_governor then begin
    prerr_endline "dvfs-simulate: --scheduler pas sets the frequency itself; add --governor none";
    exit 2
  end;
  let r = S.run (S.spec ~sched ~gov ~load ~scale ()) in
  let table =
    Table.create
      ~columns:
        [
          ("metric", Table.Left);
          ("phase A", Table.Right);
          ("phase B", Table.Right);
          ("phase C", Table.Right);
        ]
  in
  let row name series =
    Table.add_row table
      (name :: List.map (fun p -> Table.cell_f (S.phase_mean r p series)) [ S.A; S.B; S.C ])
  in
  row "V20 global load %" (S.v20_load r);
  row "V70 global load %" (S.v70_load r);
  row "V20 absolute load %" (S.v20_absolute r);
  row "V70 absolute load %" (S.v70_absolute r);
  row "frequency MHz" (S.frequency r);
  print_string (Table.render table);
  Printf.printf "\nV20 SLA deficit: %.2f pts   energy: %.1f kJ   mean power: %.1f W\n\n"
    (S.sla_deficit r (S.v20 r))
    (Hypervisor.Host.energy_joules (S.host r) /. 1000.0)
    (Hypervisor.Host.mean_watts (S.host r));
  let plot = Plot.create ~y_min:0.0 ~y_max:100.0 ~title:"loads (%)" () in
  Plot.add plot (S.v20_load r);
  Plot.add plot (S.v70_load r);
  print_string (Plot.render plot);
  let fplot = Plot.create ~y_min:0.0 ~y_max:2800.0 ~title:"frequency (MHz)" () in
  Plot.add fplot (S.frequency r);
  print_string (Plot.render fplot);
  match csv with
  | Some path ->
      Series.Frame.save_csv (Hypervisor.Host.frame (S.host r)) path;
      Printf.printf "wrote %s\n" path
  | None -> ()

let () =
  let sched =
    Arg.(value & opt sched_conv Experiments.Scenario.Credit & info [ "s"; "scheduler" ] ~docv:"SCHED")
  in
  let gov =
    Arg.(
      value
      & opt gov_conv Experiments.Scenario.Stable_ondemand
      & info [ "g"; "governor" ] ~docv:"GOV")
  in
  let load =
    Arg.(value & opt load_conv Experiments.Scenario.Exact & info [ "l"; "load" ] ~docv:"LOAD")
  in
  let scale = Arg.(value & opt float 0.2 & info [ "scale" ] ~docv:"S") in
  let csv = Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"PATH") in
  let doc = "Simulate the paper's V20/V70 scenario with a chosen configuration" in
  let cmd = Cmd.v (Cmd.info "dvfs-simulate" ~doc) Term.(const run $ sched $ gov $ load $ scale $ csv) in
  exit (Cmd.eval cmd)
