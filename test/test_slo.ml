(* Tests for the deterministic SLO/alerting plane: SLO1 rule-file
   round-trip and typed parse errors, per-condition firing/resolution
   semantics on hand-built planes, post-hoc replay, the fleet night
   integration (window-miss fires and resolves, night report
   attainment), the replication rpo_est scenario, and the byte-identity
   qcheck property (same seed => identical journal + night report). *)

module Slo = Repro_obs.Slo
module Obs = Repro_obs.Obs
module Fleet = Repro_fleet.Fleet
module Spec = Fleet.Spec
module Repl = Repro_repl.Repl
module Fault = Repro_fault.Fault
module Fs = Repro_wafl.Fs
module Volume = Repro_block.Volume
module Link = Repro_net.Link
module Generator = Repro_workload.Generator
module Clock = Repro_sim.Clock

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* ----------------------------- SLO1 ---------------------------------- *)

let sample_rules =
  [
    Slo.rule ~name:"hot"
      (Slo.Threshold { metric = "disk.q"; cmp = Slo.Above; bound = 8.0 });
    Slo.rule ~name:"cold"
      (Slo.Threshold { metric = "tape.mb_s"; cmp = Slo.Below; bound = 0.5 });
    Slo.rule ~name:"burny"
      (Slo.Burn_rate
         { series = "errs"; window_s = 60.0; cmp = Slo.Above; bound = 2.0 });
    Slo.rule ~name:"mute" (Slo.Absence { metric = "beat"; after_s = 10.0 });
    Slo.rule ~name:"late"
      (Slo.Deadline { series = "done"; target = 1.0; by_s = 30.0 });
  ]

let test_slo1_roundtrip () =
  let text = Slo.render_rules sample_rules in
  let back = Slo.parse_rules text in
  checks "SLO1 canonical form round-trips" text (Slo.render_rules back);
  checki "all rules survive" (List.length sample_rules) (List.length back);
  (* comments and blank lines are fine *)
  let with_noise = "slo1\n# a comment\n\nthreshold hot metric=disk.q above=8\n" in
  checki "comments skipped" 1 (List.length (Slo.parse_rules with_noise))

let expects_error ~line text =
  match Slo.parse_rules text with
  | (_ : Slo.rule list) -> Alcotest.failf "expected Parse_error on %S" text
  | exception Slo.Parse_error e ->
    checki (Printf.sprintf "error line for %S" text) line e.line

let test_slo1_errors () =
  expects_error ~line:1 "nope\n";
  expects_error ~line:2 "slo1\nwibble r metric=m above=1\n";
  expects_error ~line:2 "slo1\nthreshold r metric=m\n";
  expects_error ~line:2 "slo1\nthreshold r metric=m above=1 below=2\n";
  expects_error ~line:3 "slo1\n# fine\nburn r series=s window_s=w above=1\n";
  expects_error ~line:2 "slo1\ndeadline r series=s target=1\n"

(* ------------------------- condition semantics ------------------------ *)

let alerts_of e =
  List.map
    (fun (a : Slo.alert) ->
      ( a.Slo.a_rule,
        (match a.Slo.a_kind with Slo.Firing -> "firing" | Slo.Resolved -> "resolved"),
        a.Slo.a_t ))
    (Slo.alerts e)

let test_threshold () =
  let p = Obs.create () in
  Obs.with_armed p (fun () ->
      let e =
        Slo.create
          ~rules:
            [
              Slo.rule ~name:"hot"
                (Slo.Threshold { metric = "q"; cmp = Slo.Above; bound = 5.0 });
            ]
          p
      in
      (* no data: silent, not firing *)
      Slo.eval e ~now:0.0;
      checki "no data, no alerts" 0 (List.length (Slo.alerts e));
      Obs.set_gauge "q" 9.0;
      Slo.eval e ~now:1.0;
      Obs.set_gauge "q" 9.5;
      Slo.eval e ~now:2.0;
      (* still above: one firing transition, not one per eval *)
      Obs.set_gauge "q" 2.0;
      Slo.eval e ~now:3.0;
      Alcotest.(check (list (triple string string (float 1e-9))))
        "fire once, resolve once"
        [ ("hot", "firing", 1.0); ("hot", "resolved", 3.0) ]
        (alerts_of e);
      checkb "nothing left firing" true (Slo.firing e = []))

let test_burn_rate () =
  let p = Obs.create () in
  Obs.with_armed p (fun () ->
      let e =
        Slo.create
          ~rules:
            [
              Slo.rule ~name:"burny"
                (Slo.Burn_rate
                   {
                     series = "errs";
                     window_s = 10.0;
                     cmp = Slo.Above;
                     bound = 1.0;
                   });
            ]
          p
      in
      Obs.sample ~at:0.0 "errs" 0.0;
      Slo.eval e ~now:0.0;
      checki "one point is silent" 0 (List.length (Slo.alerts e));
      (* 20 errs in 4 s: rate 5/s over the window *)
      Obs.sample ~at:4.0 "errs" 20.0;
      Slo.eval e ~now:4.0;
      (* rate cools once the hot points age out of the window *)
      Obs.sample ~at:16.0 "errs" 21.0;
      Slo.eval e ~now:16.0;
      match alerts_of e with
      | [ ("burny", "firing", t1); ("burny", "resolved", t2) ] ->
        checkb "fired at the hot sample" true (t1 = 4.0);
        checkb "resolved once the window cooled" true (t2 = 16.0)
      | other ->
        Alcotest.failf "unexpected journal (%d transitions)" (List.length other))

let test_absence_and_deadline () =
  let p = Obs.create () in
  Obs.with_armed p (fun () ->
      let e =
        Slo.create
          ~rules:
            [
              Slo.rule ~name:"mute" (Slo.Absence { metric = "beat"; after_s = 5.0 });
              Slo.rule ~name:"late"
                (Slo.Deadline { series = "done"; target = 1.0; by_s = 8.0 });
            ]
          p
      in
      Slo.eval e ~now:1.0;
      checki "grace period is silent" 0 (List.length (Slo.alerts e));
      Slo.eval e ~now:5.0;
      Slo.eval e ~now:8.0;
      (* both fired; now the data arrives late *)
      Obs.sample ~at:9.0 "beat" 1.0;
      Obs.sample ~at:9.5 "done" 1.0;
      Slo.eval e ~now:9.5;
      Alcotest.(check (list (triple string string (float 1e-9))))
        "absence and deadline fire, then resolve on late data"
        [
          ("mute", "firing", 5.0);
          ("late", "firing", 8.0);
          ("mute", "resolved", 9.5);
          ("late", "resolved", 9.5);
        ]
        (alerts_of e))

let test_replay () =
  let p = Obs.create () in
  Obs.with_armed p (fun () ->
      Obs.sample ~at:1.0 "q" 9.0;
      Obs.sample ~at:2.0 "q" 9.5;
      Obs.sample ~at:3.0 "q" 2.0);
  let rules =
    [
      Slo.rule ~name:"hot"
        (Slo.Threshold { metric = "q"; cmp = Slo.Above; bound = 5.0 });
    ]
  in
  let e = Slo.create ~rules p in
  Slo.replay e;
  Alcotest.(check (list (triple string string (float 1e-9))))
    "replay reconstructs the live journal"
    [ ("hot", "firing", 1.0); ("hot", "resolved", 3.0) ]
    (alerts_of e);
  (* upto cuts the replay short: the resolution never happens *)
  let e2 = Slo.create ~rules p in
  Slo.replay ~upto:2.0 e2;
  Alcotest.(check (list string)) "still firing at the cut" [ "hot" ] (Slo.firing e2);
  (* journal JSON is deterministic *)
  let e3 = Slo.create ~rules p in
  Slo.replay e3;
  checks "journal bytes deterministic"
    (Slo.journal_json (Slo.alerts e))
    (Slo.journal_json (Slo.alerts e3))

(* Replay evaluates at each point's own time, read back as ts / 1e6 s. For
   ts = 249 us that is 0.000249, and 0.000249 * 1e6 is 248.99999999999997:
   a cut that truncated it would skip the point at its own time, and the
   miss would resolve only at the next point. *)
let test_replay_point_at_own_time () =
  let p = Obs.create () in
  (* the float just above 249e-6 records at exactly 249 us *)
  let done_at = Float.succ (249.0 /. 1e6) in
  Obs.with_armed p (fun () ->
      Obs.sample ~at:0.0 "done" 0.0;
      Obs.sample ~at:done_at "done" 1.0;
      Obs.sample ~at:0.001 "done" 1.0);
  Alcotest.(check (option (pair (float 0.0) (float 0.0))))
    "series_last at the point's own read-back time finds it"
    (Some (249.0 /. 1e6, 1.0))
    (Obs.series_last p ~at:(249.0 /. 1e6) "done");
  checki "series_since from the point's own time includes it" 2
    (List.length (Obs.series_since p ~t0:(249.0 /. 1e6) "done"));
  let e =
    Slo.create
      ~rules:
        [
          Slo.rule ~name:"late"
            (Slo.Deadline { series = "done"; target = 1.0; by_s = 0.0001 });
        ]
      p
  in
  Slo.replay e;
  Alcotest.(check (list (triple string string (float 1e-12))))
    "the miss resolves at the completing point"
    [ ("late", "firing", 0.0001); ("late", "resolved", 249.0 /. 1e6) ]
    (alerts_of e)

(* --------------------------- fleet night ------------------------------ *)

(* A night whose every-other volume carries a deadline far too tight for
   the drive pool: window misses must fire, and — because the volumes do
   finish eventually — resolve. *)
let tight_night ?storm seed =
  let spec =
    Spec.synth ~seed ~volumes:8 ~hosts:1 ~drives_per_host:1 ~tenants:2
      ~bytes_per_volume:20_000 ~deadline_every:2 ~deadline_s:0.05 ()
  in
  let p = Fleet.plan spec in
  let plane = Obs.create () in
  let report, status = Obs.with_armed plane (fun () -> Fleet.run ?storm p) in
  (spec, p, plane, report, status)

let test_fleet_window_miss () =
  let _, p, _, report, status = tight_night 3 in
  checki "night completes" 8 (List.length report.Fleet.rp_completed);
  let is_window r = String.length r > 12 && String.sub r 0 12 = "window-miss." in
  let fired =
    List.filter
      (fun (a : Slo.alert) -> a.Slo.a_kind = Slo.Firing && is_window a.Slo.a_rule)
      report.Fleet.rp_alerts
  in
  let resolved =
    List.filter
      (fun (a : Slo.alert) ->
        a.Slo.a_kind = Slo.Resolved && is_window a.Slo.a_rule)
      report.Fleet.rp_alerts
  in
  checkb "window misses fired" true (fired <> []);
  checki "every miss resolved on (late) completion" (List.length fired)
    (List.length resolved);
  List.iter
    (fun (f : Slo.alert) ->
      checkb (f.Slo.a_rule ^ " resolves after firing") true
        (List.exists
           (fun (r : Slo.alert) ->
             r.Slo.a_rule = f.Slo.a_rule
             && r.Slo.a_kind = Slo.Resolved
             && r.Slo.a_t >= f.Slo.a_t)
           resolved))
    fired;
  (* the night report reflects the misses and reads back *)
  let json = Fleet.night_report p report ~status in
  match Fleet.attainment_summary json with
  | None -> Alcotest.fail "night report does not read back"
  | Some (fleet, tenants, hosts) ->
    checkb "fleet attainment in [0,1)" true (fleet >= 0.0 && fleet < 1.0);
    checki "one row per tenant" 2 (List.length tenants);
    checki "one row per host" 1 (List.length hosts)

let test_fleet_custom_rules () =
  let spec =
    Spec.synth ~seed:4 ~volumes:4 ~hosts:1 ~drives_per_host:2 ~tenants:1
      ~bytes_per_volume:8_000 ()
  in
  let rules =
    Slo.parse_rules "slo1\nthreshold all-done metric=fleet.volumes_done below=4\n"
  in
  let plane = Obs.create () in
  let report, _ =
    Obs.with_armed plane (fun () -> Fleet.run ~rules (Fleet.plan spec))
  in
  (* below-4 fires while the night is in flight and resolves at the
     fourth completion *)
  let mine =
    List.filter (fun (a : Slo.alert) -> a.Slo.a_rule = "all-done")
      report.Fleet.rp_alerts
  in
  checkb "custom rule fired" true
    (List.exists (fun (a : Slo.alert) -> a.Slo.a_kind = Slo.Firing) mine);
  checkb "custom rule resolved" true
    (match List.rev mine with
    | last :: _ -> last.Slo.a_kind = Slo.Resolved
    | [] -> false)

(* --------------------------- replication ------------------------------ *)

let test_repl_rpo_alert () =
  let clk = Clock.create () in
  let plane = Obs.create ~clock:clk () in
  let vol = Volume.create ~label:"A" (Volume.small_geometry ~data_blocks:4096) in
  let fs = Fs.mkfs vol in
  let profile = { Generator.default with Generator.seed = 11 } in
  ignore (Generator.populate ~profile ~fs ~root:"/data" ~total_bytes:200_000 ());
  Obs.with_armed plane (fun () ->
      let t = Repl.create ~clock:clk ~primary:"A" fs in
      Repl.add_replica t ~upstream:"A" ~name:"B"
        ~params:(Link.params ~mtu_bytes:8192 ())
        ~interval_s:60.0 ();
      ignore (Repl.run_until t 120.0);
      (* partition the edge and let scheduled checkpoints pile up: the
         recovery-point estimate drifts with nothing replicating *)
      let fplane =
        Fault.plan [ Fault.Link_partition { device = "B"; after_frames = 4 } ]
      in
      ignore (Fault.with_armed fplane (fun () -> Repl.run_until t 600.0));
      Fault.revive fplane ~device:"B";
      (* heal: the next scheduled pass catches B up *)
      ignore (Fault.with_armed fplane (fun () -> Repl.run_until t 700.0)));
  let e =
    Slo.create
      ~rules:
        [
          Slo.rule ~name:"rpo-drift"
            (Slo.Threshold
               { metric = "repl.rpo_est_s"; cmp = Slo.Above; bound = 150.0 });
        ]
      plane
  in
  Slo.replay e;
  let mine = Slo.alerts e in
  checkb "rpo drift fired during the partition" true
    (List.exists (fun (a : Slo.alert) -> a.Slo.a_kind = Slo.Firing) mine);
  checkb "rpo drift resolved after the heal" true
    (match List.rev mine with
    | last :: _ -> last.Slo.a_kind = Slo.Resolved
    | [] -> false);
  checkb "nothing left firing" true (Slo.firing e = [])

(* --------------------------- determinism ------------------------------ *)

(* The acceptance property: identical seeds produce byte-identical alert
   journals and night reports, storms included. *)
let prop_identical_nights =
  QCheck2.Test.make ~count:4 ~name:"identical seeds give identical journals"
    QCheck2.Gen.(pair (int_range 0 1000) (int_range 1 100))
    (fun (seed, storm_seed) ->
      let storm =
        {
          Fleet.storm_after = 2;
          storm_drives = 1;
          storm_abort_after = None;
          storm_seed;
        }
      in
      let night () =
        let _, p, _, report, status = tight_night ~storm seed in
        ( Slo.journal_json report.Fleet.rp_alerts,
          Fleet.night_report p report ~status )
      in
      let j1, r1 = night () in
      let j2, r2 = night () in
      String.equal j1 j2 && String.equal r1 r2)

let () =
  Alcotest.run "slo"
    [
      ( "slo1",
        [
          Alcotest.test_case "round-trip" `Quick test_slo1_roundtrip;
          Alcotest.test_case "typed parse errors" `Quick test_slo1_errors;
        ] );
      ( "conditions",
        [
          Alcotest.test_case "threshold state machine" `Quick test_threshold;
          Alcotest.test_case "burn rate window" `Quick test_burn_rate;
          Alcotest.test_case "absence and deadline" `Quick
            test_absence_and_deadline;
          Alcotest.test_case "post-hoc replay" `Quick test_replay;
          Alcotest.test_case "replay reads a point at its own time" `Quick
            test_replay_point_at_own_time;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "window miss fires and resolves" `Quick
            test_fleet_window_miss;
          Alcotest.test_case "custom rules ride along" `Quick
            test_fleet_custom_rules;
        ] );
      ( "repl",
        [ Alcotest.test_case "rpo drift fires and resolves" `Quick test_repl_rpo_alert ]
      );
      ( "determinism",
        [ QCheck_alcotest.to_alcotest prop_identical_nights ] );
    ]
