(* [paper]: one volume through the paper's comparison (Tables 2-5).

   The volume holds 32 MiB of user data, twice WAFL's 16 MiB buffer cache,
   and is aged before the pass. A pass runs, through [Engine]: a logical
   and a physical level-0 backup, each 4 parts over 2 local drives and 2
   drives on a tape server behind a fat link; a churn round; level-1
   incrementals of both; then both restore chains with concurrency 4, onto
   a fresh file system and a fresh volume. The restored trees are compared
   with the source after the timed steps.

   The traced pass also replays every part stream outside the engine:
   [Dump.run] and [Image_dump] on a second, identical source into a timing
   tape backend, shipping remote parts through [Session.write]; and
   [Restore.apply] and [Image_restore.apply] from the engine's tapes. Each
   replayed stream must equal, record for record, the one the engine wrote
   for the catalog entry it stands in for. *)

open Common
module Engine = Repro_backup.Engine
module Strategy = Repro_backup.Strategy
module Catalog = Repro_backup.Catalog
module Volume = Repro_block.Volume
module Fs = Repro_wafl.Fs
module Inode = Repro_wafl.Inode
module Generator = Repro_workload.Generator
module Ager = Repro_workload.Ager
module Compare = Repro_workload.Compare
module Library = Repro_tape.Library
module Tapeio = Repro_tape.Tapeio
module Link = Repro_net.Link
module Session = Repro_net.Session
module Dump = Repro_dump.Dump
module Dumpdates = Repro_dump.Dumpdates
module Restore = Repro_dump.Restore
module Image_dump = Repro_image.Image_dump
module Image_restore = Repro_image.Image_restore

let user_bytes = 32 * 1024 * 1024

(* 128 MiB: room for the data, the aging, and the snapshots a physical
   incremental keeps. *)
let data_blocks = 32768
let parts = 4
let logical_label = "/data"
let physical_label = "vol"

let fat_link =
  Link.params ~bandwidth_bytes_s:1e9 ~latency_s:1e-5
    ~window_bytes:(16 * 1024 * 1024) ()

(* The pass's churn round: 2 rounds of 50 writes, seeded apart from the
   set-up aging. *)
let churn seed = { Ager.default_churn with Ager.seed = seed + 1; rounds = 2 }

(* [Generator.populate]'s directory tree is a branching process, so one
   tree's shape swings widely with its seed: at 32 MiB, one seed gave 3
   directories of ~420 files and took 1.5x as long to back up and restore
   as one with 111. The volume is populated as 16 subtrees of 2 MiB with
   seeds of their own, so the shape, and the work, averages out across
   seeds. *)
let subtrees = 16

(* The timed set-up: mkfs, populate and age. *)
let build seed =
  let fs = Fs.mkfs (Volume.create ~label:"paper" (Volume.small_geometry ~data_blocks)) in
  ignore (Fs.mkdir fs "/data" ~perms:0o755);
  for i = 0 to subtrees - 1 do
    ignore
      (Generator.populate
         ~profile:{ Generator.default with Generator.seed = (seed * subtrees) + i }
         ~fs ~root:(Printf.sprintf "/data/s%02d" i) ~total_bytes:(user_bytes / subtrees) ())
  done;
  ignore (Ager.age ~churn:{ Ager.default_churn with Ager.seed } ~fs ~root:"/data" ());
  fs

let setup seed =
  let fs, dt = timed (fun () -> build seed) in
  let user =
    List.fold_left
      (fun acc p -> acc + (Fs.getattr fs p).Inode.size)
      0
      (Generator.file_paths fs "/data")
  in
  (fs, user, dt)

type engine_pass = {
  libs : Library.t array;  (** drives 0-1 local, 2-3 on the tape server *)
  log0 : Catalog.entry;
  phy0 : Catalog.entry;
  log1 : Catalog.entry;
  phy1 : Catalog.entry;
  restored_fs : Fs.t;
  restored_vol : Volume.t;
  logical_results : Restore.apply_result list;
  physical_results : Image_restore.result list;
  steps : (string * float) list;  (** host seconds per step *)
}

let engine_pass seed fs =
  let steps = ref [] in
  let step name f =
    let x, dt = timed (fun () -> Span.span name f) in
    steps := (name, dt) :: !steps;
    x
  in
  let libs =
    Array.init 4 (fun i -> Library.create ~slots:16 ~label:(Printf.sprintf "S%d" i) ())
  in
  let eng, drives =
    step "core.engine_create" (fun () ->
        let eng = Engine.create ~fs ~libraries:[ libs.(0); libs.(1) ] () in
        let remote =
          Engine.attach_remote eng ~host:"vault" ~link_params:fat_link
            ~libraries:[ libs.(2); libs.(3) ] ()
        in
        (eng, [ 0; 1 ] @ remote))
  in
  let backup strategy level =
    let name, subtree, label =
      match strategy with
      | Strategy.Logical -> ("core.logical_backup", logical_label, logical_label)
      | Strategy.Physical -> ("core.physical_backup", "/", physical_label)
    in
    step name (fun () ->
        Engine.backup_job eng
          (Engine.Job.make ~strategy ~level ~subtree ~label ~parts ~drives ()))
  in
  let log0 = backup Strategy.Logical 0 in
  let phy0 = backup Strategy.Physical 0 in
  step "workload.age" (fun () -> ignore (Ager.age ~churn:(churn seed) ~fs ~root:"/data" ()));
  let log1 = backup Strategy.Logical 1 in
  let phy1 = backup Strategy.Physical 1 in
  let geometry = Volume.small_geometry ~data_blocks in
  let restored_fs =
    let vol = step "block.volume_create" (fun () -> Volume.create ~label:"rlog" geometry) in
    step "wafl.mkfs" (fun () -> Fs.mkfs vol)
  in
  let restored_vol = step "block.volume_create" (fun () -> Volume.create ~label:"rphy" geometry) in
  let logical_results =
    step "core.logical_restore" (fun () ->
        Engine.restore_logical eng ~label:logical_label ~fs:restored_fs ~target:"/data"
          ~concurrency:parts ())
  in
  let physical_results =
    step "core.physical_restore" (fun () ->
        Engine.restore_physical eng ~label:physical_label ~volume:restored_vol
          ~concurrency:parts ())
  in
  {
    libs; log0; phy0; log1; phy1; restored_fs; restored_vol; logical_results;
    physical_results; steps = List.rev !steps;
  }

let step_s p names =
  List.fold_left
    (fun acc (n, dt) -> if List.mem n names then acc +. dt else acc)
    0.0 p.steps

let mb_s bytes seconds = Float.of_int bytes /. 1e6 /. seconds

(* Outside the timed steps: both restored trees equal the source. *)
let check_restores src p =
  let same what dst =
    match Compare.trees ~src:(src, "/data") ~dst:(dst, "/data") () with
    | Ok () -> ()
    | Error diffs ->
      check false "paper: %s restore differs: %s" what (String.concat "; " diffs)
  in
  same "logical" p.restored_fs;
  same "physical" (Fs.mount p.restored_vol);
  check
    (List.length p.logical_results = 2 && List.length p.physical_results = 2)
    "paper: restore chains have %d logical and %d physical entries"
    (List.length p.logical_results) (List.length p.physical_results)

(* ---- the replay outside the engine (traced pass only) ---- *)

let observe phase f =
  let name =
    match phase with
    | "mapping" -> "dump.map"
    | "dumping directories" -> "dump.dirs"
    | "dumping files" -> "dump.files"
    | "creating files" -> "restore.create"
    | "filling in data" -> "restore.fill"
    | "dumping blocks" -> "image.dump_blocks"
    | "restoring blocks" -> "image.restore_blocks"
    | other -> "phase." ^ other
  in
  Span.span name f

(* The mover's wire shape: u32-LE length, record; the all-ones length is
   the filemark. *)
let len_prefix n =
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 (Int32.of_int n);
  Bytes.unsafe_to_string b

let ship session records =
  Span.span "net.session" (fun () ->
      let delivered = ref 0 in
      let stream =
        Session.open_stream (Lazy.force session) ~deliver:(fun s ->
            delivered := !delivered + String.length s)
      in
      let sent = ref 4 in
      List.iter
        (fun r ->
          Session.write stream (len_prefix (String.length r) ^ r);
          sent := !sent + 4 + String.length r)
        records;
      Session.write stream (len_prefix 0xFFFF_FFFF);
      let x = Session.close_stream stream in
      Span.count "net.frames" x.Session.xf_frames;
      Span.count "net.retransmits" x.Session.xf_retransmits;
      check (!delivered = !sent) "paper: shipped %d bytes, %d delivered" !sent !delivered)

let part_of (e : Catalog.entry) p =
  (List.nth e.Catalog.part_drives p, List.nth e.Catalog.streams p, List.nth e.Catalog.part_hosts p)

(* Every record of one stream the engine wrote. *)
let engine_records libs e p =
  let drive, stream, _ = part_of e p in
  let next = Tapeio.records ~skip_streams:stream libs.(drive) in
  let rec go acc = match next () with Some r -> go (r :: acc) | None -> List.rev acc in
  go []

(* Dump every part of [e] into timed tape backends; the streams go to
   scratch stackers, one per engine drive, in the engine's drive order. *)
let replay_parts ~scratch ~session (e : Catalog.entry) dump =
  List.init parts (fun p ->
      let drive, _, host = part_of e p in
      let be = Tapeio.library_backend scratch.(drive) in
      let records = ref [] in
      let timed_be =
        {
          Tapeio.be_put =
            (fun r ->
              Span.span "tape.put" (fun () -> be.Tapeio.be_put r);
              Span.count "tape.records" 1;
              records := r :: !records);
          be_mark = (fun () -> Span.span "tape.put" be.Tapeio.be_mark);
        }
      in
      let bytes = dump p (Tapeio.sink_to timed_be) in
      let records = List.rev !records in
      if host <> "" then ship session records;
      (records, bytes))

let replay_backups seed fs (ep : engine_pass) =
  let scratch =
    Array.init 4 (fun i -> Library.create ~slots:16 ~label:(Printf.sprintf "R%d" i) ())
  in
  let session =
    lazy (Session.connect ~host:"vault" (Link.create ~params:fat_link ~label:"vault" ()))
  in
  let dd = Dumpdates.create () and seq = ref 0 and base = ref "" in
  (* The engine's snapshot discipline, step for step, so the streams come
     out byte-identical: the date is read before the snapshot is taken,
     snapshots are numbered across jobs, a logical snapshot goes away after
     its job, and a physical one stays as the next incremental's base. *)
  let snapshot prefix (e : Catalog.entry) =
    let date = Fs.now fs in
    check (date = e.Catalog.date) "paper: replay date %g, engine %g" date e.Catalog.date;
    incr seq;
    let snap = Printf.sprintf "%s.%d" prefix !seq in
    Span.span "wafl.snapshot" (fun () -> Fs.snapshot_create fs snap);
    (snap, date)
  in
  let logical level e =
    let snap, date = snapshot "dump" e in
    let out =
      replay_parts ~scratch ~session e (fun p sink ->
          Span.span "dump.run" (fun () ->
              let view = Fs.snapshot_view fs snap in
              (Dump.run ~level ~dumpdates:dd ~record:false ~part:(p, parts) ~observe
                 ~view ~subtree:logical_label ~label:logical_label ~date ~sink ())
                .Dump.bytes_written))
    in
    Span.span "wafl.snapshot" (fun () -> Fs.snapshot_delete fs snap);
    Dumpdates.record dd ~label:logical_label ~level ~date;
    out
  in
  let physical e =
    let snap, _ = snapshot "image" e in
    let out =
      replay_parts ~scratch ~session e (fun p sink ->
          Span.span "image.dump" (fun () ->
              let r =
                if !base = "" then
                  Image_dump.full ~part:(p, parts) ~observe ~fs ~snapshot:snap ~sink ()
                else
                  Image_dump.incremental ~part:(p, parts) ~observe ~fs ~base:!base
                    ~snapshot:snap ~sink ()
              in
              r.Image_dump.bytes_written))
    in
    if !base <> "" then Span.span "wafl.snapshot" (fun () -> Fs.snapshot_delete fs !base);
    base := snap;
    out
  in
  let l0 = logical 0 ep.log0 in
  let p0 = physical ep.phy0 in
  Span.span "workload.age" (fun () -> ignore (Ager.age ~churn:(churn seed) ~fs ~root:"/data" ()));
  let l1 = logical 1 ep.log1 in
  let p1 = physical ep.phy1 in
  [ (ep.log0, l0); (ep.phy0, p0); (ep.log1, l1); (ep.phy1, p1) ]

let replay_restores (ep : engine_pass) =
  let session =
    lazy (Session.connect ~host:"vault" (Link.create ~params:fat_link ~label:"vault" ()))
  in
  let source e p =
    let drive, stream, host = part_of e p in
    let pull = Span.span "tape.get" (fun () -> Tapeio.records ~skip_streams:stream ep.libs.(drive)) in
    let next () =
      Span.span "tape.get" (fun () ->
          let r = pull () in
          if r <> None then Span.count "tape.records" 1;
          r)
    in
    if host = "" then Tapeio.source_of next
    else begin
      (* A remote stream crosses the link whole before restore reads it. *)
      let rec drain acc = match next () with Some r -> drain (r :: acc) | None -> List.rev acc in
      let records = drain [] in
      ship session records;
      let queue = ref records in
      Tapeio.source_of (fun () ->
          match !queue with
          | r :: rest -> queue := rest; Some r
          | [] -> None)
    end
  in
  let geometry = Volume.small_geometry ~data_blocks in
  let fs =
    Span.span "wafl.mkfs" (fun () ->
        Fs.mkfs (Span.span "block.volume_create" (fun () -> Volume.create ~label:"xlog" geometry)))
  in
  let session_r = Restore.session ~fs ~target:"/data" () in
  let logical =
    List.map
      (fun e ->
        List.init parts (fun p ->
            Span.span "restore.apply" (fun () -> Restore.apply ~observe session_r (source e p))))
      [ ep.log0; ep.log1 ]
  in
  let volume = Span.span "block.volume_create" (fun () -> Volume.create ~label:"xphy" geometry) in
  let physical =
    List.map
      (fun e ->
        List.init parts (fun p ->
            Span.span "image.restore" (fun () -> Image_restore.apply ~observe ~volume (source e p))))
      [ ep.phy0; ep.phy1 ]
  in
  (fs, volume, logical, physical)

let check_replay ~src (ep : engine_pass) streams (fs, volume, logical, physical) =
  let differ = ref 0 in
  List.iter
    (fun ((e : Catalog.entry), out) ->
      List.iteri
        (fun p (records, _) -> if records <> engine_records ep.libs e p then incr differ)
        out;
      let bytes = List.fold_left (fun a (_, b) -> a + b) 0 out in
      check (bytes = e.Catalog.bytes) "paper: entry %d replayed %d bytes, catalog %d"
        e.Catalog.id bytes e.Catalog.bytes)
    streams;
  check (!differ = 0) "paper: %d replayed streams differ from the engine's" !differ;
  let sum_logical rs =
    List.fold_left
      (fun (a : Restore.apply_result) (r : Restore.apply_result) ->
        {
          Restore.files_restored = a.files_restored + r.files_restored;
          dirs_created = a.dirs_created + r.dirs_created;
          files_deleted = a.files_deleted + r.files_deleted;
          renames = a.renames + r.renames;
          bytes_restored = a.bytes_restored + r.bytes_restored;
          corrupt_headers_skipped = a.corrupt_headers_skipped + r.corrupt_headers_skipped;
        })
      (List.hd rs) (List.tl rs)
  in
  check
    (List.map sum_logical logical = ep.logical_results)
    "paper: replayed logical restore results differ from the engine's";
  let blocks rs = List.fold_left (fun a r -> a + r.Image_restore.blocks_restored) 0 rs in
  check
    (List.map blocks physical
    = List.map (fun r -> r.Image_restore.blocks_restored) ep.physical_results)
    "paper: replayed physical restore results differ from the engine's";
  check_restores src { ep with restored_fs = fs; restored_vol = volume };
  !differ

let untraced_pass seed =
  let fs, _, setup_s = setup seed in
  Gc.full_major ();
  let p = engine_pass seed fs in
  check_restores fs p;
  let backups = [ "core.logical_backup"; "core.physical_backup" ] in
  [
    ("setup_s", setup_s);
    ("pass_s", step_s p (List.map fst p.steps));
    ("volumes_per_s", 1.0 /. step_s p backups);
    ( "logical_backup_mb_s",
      mb_s (p.log0.Catalog.bytes + p.log1.Catalog.bytes) (step_s p [ "core.logical_backup" ]) );
  ]

let traced_pass seed =
  let fs, user, _ = setup seed in
  let replica_fs, _, _ = setup seed in
  Span.reset ();
  Gc.full_major ();
  let ep, wall_a = timed (fun () -> engine_pass seed fs) in
  let (streams, restores), wall_b =
    timed (fun () ->
        let streams = replay_backups seed replica_fs ep in
        (streams, replay_restores ep))
  in
  let differ = check_replay ~src:fs ep streams restores in
  check_restores fs ep;
  let entry_bytes es = List.fold_left (fun a (e : Catalog.entry) -> a + e.Catalog.bytes) 0 es in
  let rate name es = (name ^ ".mb_s", mb_s (entry_bytes es) (step_s ep [ name ])) in
  coverage ~wall:(wall_a +. wall_b)
  :: rate "core.logical_backup" [ ep.log0; ep.log1 ]
  :: rate "core.physical_backup" [ ep.phy0; ep.phy1 ]
  :: rate "core.logical_restore" [ ep.log0; ep.log1 ]
  :: rate "core.physical_restore" [ ep.phy0; ep.phy1 ]
  :: ("dump.tape_bytes_per_user_byte", Float.of_int ep.log0.Catalog.bytes /. Float.of_int user)
  :: ("image.tape_bytes_per_user_byte", Float.of_int ep.phy0.Catalog.bytes /. Float.of_int user)
  :: ("tape.stream_mismatches", Float.of_int differ)
  :: List.map secs
       [
         "core.engine_create"; "core.logical_backup"; "core.physical_backup";
         "core.logical_restore"; "core.physical_restore"; "block.volume_create"; "wafl.mkfs";
         "wafl.snapshot"; "workload.age"; "dump.run"; "dump.map"; "dump.dirs"; "dump.files";
         "image.dump"; "image.dump_blocks"; "restore.apply"; "restore.create"; "restore.fill";
         "image.restore"; "image.restore_blocks"; "tape.put"; "tape.get"; "net.session";
       ]
  @ List.map counted [ "tape.records"; "net.frames"; "net.retransmits" ]

(* One volume, both strategies, full and incremental: 4 backup jobs and 8
   restored part streams per pass. *)
let jobs_per_pass = 4 + (2 * 2 * parts)

let run ~seed ~seconds ~trace =
  let pass = if trace then traced_pass else untraced_pass in
  let passes = repeat ~seconds ~min_passes:(if trace then 1 else 3) ~trace (fun _ -> pass seed) in
  { attempted = List.length passes * jobs_per_pass; failed = 0; metrics = summarize ~trace passes }
