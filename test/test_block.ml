(* Tests for the block substrate: disk service model, RAID-4 parity and
   reconstruction, volume addressing and full-stripe batching. *)

module Block = Repro_block.Block
module Disk = Repro_block.Disk
module Raid = Repro_block.Raid
module Volume = Repro_block.Volume
module Prng = Repro_util.Prng

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let block_of_char c = Bytes.make Block.size c

let test_block_helpers () =
  checkb "zero is zero" true (Block.is_zero (Block.zero ()));
  checkb "nonzero detected" false (Block.is_zero (block_of_char 'x'));
  checki "blocks_for 1" 1 (Block.blocks_for 1);
  checki "blocks_for 4096" 1 (Block.blocks_for 4096);
  checki "blocks_for 4097" 2 (Block.blocks_for 4097);
  checki "blocks_for 0" 0 (Block.blocks_for 0);
  try
    Block.check (Bytes.create 100);
    Alcotest.fail "wrong size should raise"
  with Invalid_argument _ -> ()

let test_disk_read_write () =
  let d = Disk.create ~label:"d0" (Disk.default_params ~blocks:64) in
  let b = block_of_char 'a' in
  Disk.write d 7 b;
  Alcotest.(check bytes) "read back" b (Disk.read d 7);
  checkb "unwritten reads zero" true (Block.is_zero (Disk.read d 8));
  (* returned buffer is a copy: mutating it must not corrupt the disk *)
  let r = Disk.read d 7 in
  Bytes.set r 0 'Z';
  Alcotest.(check bytes) "isolation" b (Disk.read d 7)

(* The disk owns its blocks: a borrowed read is the stored block itself
   (no copy) and charges exactly like a copying read; a write copies the
   caller's buffer (into a fresh slot, then in place). *)
let test_disk_borrowed () =
  let a = Disk.create ~label:"a" (Disk.default_params ~blocks:64) in
  let b = Disk.create ~label:"b" (Disk.default_params ~blocks:64) in
  let buf = block_of_char 'a' in
  Disk.write a 7 buf;
  Disk.write b 7 buf;
  Bytes.fill buf 0 Block.size 'z';
  let r1 = Disk.read_borrowed a 7 in
  Alcotest.(check bytes) "stored a copy" (block_of_char 'a') r1;
  checkb "borrowed twice is one block" true (r1 == Disk.read_borrowed a 7);
  checkb "copying read is fresh" false (Disk.read a 7 == r1);
  checkb "unwritten borrows zero" true (Block.is_zero (Disk.read_borrowed a 9));
  Disk.write a 7 (block_of_char 'c');
  checkb "rewrite lands in the same slot" true (Disk.read_borrowed a 7 == r1);
  Alcotest.(check bytes) "slot holds the rewrite" (block_of_char 'c') r1;
  (* same address sequence on [b] with copying reads *)
  ignore (Disk.read b 7);
  ignore (Disk.read b 7);
  ignore (Disk.read b 7);
  ignore (Disk.read b 9);
  Disk.write b 7 (block_of_char 'c');
  ignore (Disk.read b 7);
  checki "same reads" (Disk.reads b) (Disk.reads a);
  checki "same writes" (Disk.writes b) (Disk.writes a);
  checki "same seeks" (Disk.seeks b) (Disk.seeks a);
  checki "same bytes" (Disk.bytes_moved b) (Disk.bytes_moved a);
  checkb "same busy time" true (Disk.busy_seconds a = Disk.busy_seconds b);
  Disk.fail a;
  match Disk.read_borrowed a 7 with
  | _ -> Alcotest.fail "failed disk must raise on a borrowed read"
  | exception Disk.Disk_failed _ -> ()

let test_disk_service_model () =
  let d = Disk.create ~label:"d0" (Disk.default_params ~blocks:4096) in
  (* sequential reads: one seek then streaming *)
  for i = 0 to 99 do
    ignore (Disk.read d i)
  done;
  let seq_busy = Disk.busy_seconds d in
  checki "one seek" 1 (Disk.seeks d);
  Disk.reset_stats d;
  (* far random reads: a seek each *)
  let rng = Prng.create 1 in
  for _ = 0 to 99 do
    ignore (Disk.read d (Prng.int rng 4096))
  done;
  let rand_busy = Disk.busy_seconds d in
  checkb
    (Printf.sprintf "random much slower (%.4f vs %.4f)" rand_busy seq_busy)
    true
    (rand_busy > 5.0 *. seq_busy)

let test_disk_failure () =
  let d = Disk.create ~label:"d0" (Disk.default_params ~blocks:16) in
  Disk.write d 0 (block_of_char 'x');
  Disk.fail d;
  (try
     ignore (Disk.read d 0);
     Alcotest.fail "failed disk should raise"
   with Disk.Disk_failed _ -> ());
  Disk.revive d;
  checkb "revived disk is blank" true (Block.is_zero (Disk.read d 0))

let make_raid () =
  Raid.create ~label:"rg" ~ndisks:5 ~blocks_per_disk:32 (Disk.default_params ~blocks:32)

let test_raid_addressing () =
  let r = make_raid () in
  checki "data disks" 4 (Raid.data_disks r);
  checki "data blocks" 128 (Raid.data_blocks r);
  Alcotest.(check (pair int int)) "gbn 0" (0, 0) (Raid.stripe_of_gbn r 0);
  Alcotest.(check (pair int int)) "gbn 5" (1, 1) (Raid.stripe_of_gbn r 5)

let test_raid_parity_and_reconstruction () =
  let r = make_raid () in
  let rng = Prng.create 2 in
  (* scatter writes *)
  for _ = 1 to 60 do
    let gbn = Prng.int rng (Raid.data_blocks r) in
    let b = Block.zero () in
    for i = 0 to 255 do
      Bytes.set b i (Char.chr (Prng.int rng 256))
    done;
    Raid.write r gbn b
  done;
  checkb "parity consistent after writes" true (Raid.parity_consistent r);
  (* capture, fail a data disk, verify reads reconstruct *)
  let expect = Array.init (Raid.data_blocks r) (fun gbn -> Raid.read r gbn) in
  Raid.fail_disk r 1;
  Array.iteri
    (fun gbn b -> Alcotest.(check bytes) (Printf.sprintf "gbn %d degraded" gbn) b (Raid.read r gbn))
    expect;
  (* writes in degraded mode still correct *)
  let nb = block_of_char 'N' in
  Raid.write r 1 nb (* gbn 1 lives on the failed disk *);
  Alcotest.(check bytes) "degraded write" nb (Raid.read r 1);
  (* rebuild onto replacement *)
  Raid.rebuild_disk r 1;
  checkb "parity consistent after rebuild" true (Raid.parity_consistent r);
  Alcotest.(check bytes) "content after rebuild" nb (Raid.read r 1)

let test_raid_write_stripe () =
  let r = make_raid () in
  let data = Array.init (Raid.data_disks r) (fun i -> block_of_char (Char.chr (65 + i))) in
  Raid.write_stripe r 3 data;
  checkb "parity consistent" true (Raid.parity_consistent r);
  Array.iteri
    (fun i b ->
      Alcotest.(check bytes)
        (Printf.sprintf "disk %d" i)
        b
        (Raid.read r ((3 * Raid.data_disks r) + i)))
    data

let test_raid_stripe_write_cheaper () =
  (* Full-stripe writes must beat read-modify-write: the reason
     write-anywhere allocation exists. *)
  let a = make_raid () in
  let b = make_raid () in
  let width = Raid.data_disks a in
  let data = Array.init width (fun i -> block_of_char (Char.chr (65 + i))) in
  for s = 0 to 7 do
    Raid.write_stripe a s data
  done;
  let stripe_busy =
    Array.fold_left (fun acc d -> acc +. Disk.busy_seconds d) 0.0 (Raid.disks a)
  in
  for s = 0 to 7 do
    for i = 0 to width - 1 do
      Raid.write b ((s * width) + i) data.(i)
    done
  done;
  let rmw_busy =
    Array.fold_left (fun acc d -> acc +. Disk.busy_seconds d) 0.0 (Raid.disks b)
  in
  checkb
    (Printf.sprintf "stripe %.4fs < rmw %.4fs" stripe_busy rmw_busy)
    true
    (stripe_busy *. 1.5 < rmw_busy)

let test_raid_double_failure () =
  let r = make_raid () in
  Raid.fail_disk r 0;
  Raid.fail_disk r 2;
  try
    ignore (Raid.read r 0);
    Alcotest.fail "double failure should raise"
  with Disk.Disk_failed _ -> ()

let test_volume_flat_space () =
  let v =
    Volume.create ~label:"v"
      (Volume.geometry ~groups:2 ~disks_per_group:4 ~blocks_per_disk:16 ())
  in
  checki "size" (2 * 3 * 16) (Volume.size_blocks v);
  (* write across the group boundary *)
  let last_of_g0 = (3 * 16) - 1 in
  Volume.write v last_of_g0 (block_of_char 'x');
  Volume.write v (last_of_g0 + 1) (block_of_char 'y');
  Alcotest.(check bytes) "g0" (block_of_char 'x') (Volume.read v last_of_g0);
  Alcotest.(check bytes) "g1" (block_of_char 'y') (Volume.read v (last_of_g0 + 1));
  checkb "parity ok" true (Volume.parity_consistent v);
  try
    ignore (Volume.read v (Volume.size_blocks v));
    Alcotest.fail "oob should raise"
  with Invalid_argument _ -> ()

let test_volume_write_batch () =
  let v =
    Volume.create ~label:"v"
      (Volume.geometry ~groups:1 ~disks_per_group:5 ~blocks_per_disk:64 ())
  in
  let rng = Prng.create 9 in
  let blocks =
    List.init 100 (fun i ->
        let b = Block.zero () in
        Bytes.set b 0 (Char.chr (Prng.int rng 256));
        Bytes.set b 1 (Char.chr (i mod 256));
        (i + 3, b))
  in
  Volume.write_batch v blocks;
  List.iter
    (fun (vbn, b) ->
      Alcotest.(check bytes) (Printf.sprintf "vbn %d" vbn) b (Volume.read v vbn))
    blocks;
  checkb "parity consistent after batch" true (Volume.parity_consistent v)

let test_volume_read_extent () =
  let v = Volume.create ~label:"v" (Volume.small_geometry ~data_blocks:128) in
  Volume.write v 10 (block_of_char 'a');
  Volume.write v 11 (block_of_char 'b');
  let ext = Volume.read_extent v 10 2 in
  Alcotest.(check char) "first" 'a' (Bytes.get ext 0);
  Alcotest.(check char) "second" 'b' (Bytes.get ext Block.size)

let test_volume_rebuild () =
  let v = Volume.create ~label:"v" (Volume.small_geometry ~data_blocks:256) in
  let rng = Prng.create 4 in
  for vbn = 0 to 255 do
    let b = Block.zero () in
    Bytes.set_int64_le b 0 (Prng.int64 rng);
    Volume.write v vbn b
  done;
  let before = Array.init 256 (fun vbn -> Volume.read v vbn) in
  Volume.fail_disk v ~group:0 ~disk:2;
  Array.iteri
    (fun vbn b -> Alcotest.(check bytes) (Printf.sprintf "degraded %d" vbn) b (Volume.read v vbn))
    before;
  Volume.rebuild_disk v ~group:0 ~disk:2;
  checkb "parity ok after rebuild" true (Volume.parity_consistent v);
  Array.iteri
    (fun vbn b -> Alcotest.(check bytes) (Printf.sprintf "rebuilt %d" vbn) b (Volume.read v vbn))
    before

let prop_volume_batch_equals_singles =
  QCheck2.Test.make ~name:"volume: write_batch equals individual writes"
    QCheck2.Gen.(list_size (int_range 1 60) (pair (int_bound 127) (char_range 'a' 'z')))
    (fun writes ->
      (* last write to each vbn wins in both schemes; dedup keeps it simple *)
      let dedup = Hashtbl.create 16 in
      List.iter (fun (vbn, c) -> Hashtbl.replace dedup vbn c) writes;
      let writes = Hashtbl.fold (fun v c acc -> (v, c) :: acc) dedup [] in
      let v1 = Volume.create ~label:"a" (Volume.small_geometry ~data_blocks:128) in
      let v2 = Volume.create ~label:"b" (Volume.small_geometry ~data_blocks:128) in
      Volume.write_batch v1 (List.map (fun (vbn, c) -> (vbn, block_of_char c)) writes);
      List.iter (fun (vbn, c) -> Volume.write v2 vbn (block_of_char c)) writes;
      List.for_all (fun (vbn, _) -> Bytes.equal (Volume.read v1 vbn) (Volume.read v2 vbn)) writes
      && Volume.parity_consistent v1)

(* ------------------------- the parity kernel ------------------------- *)

(* The byte-at-a-time loop that Block.xor_into replaced: the reference for
   the eight-bytes-at-a-time kernel. *)
let xor_into_bytewise dst src =
  for i = 0 to Bytes.length dst - 1 do
    Bytes.set dst i (Char.chr (Char.code (Bytes.get dst i) lxor Char.code (Bytes.get src i)))
  done

let random_bytes rng n = Bytes.init n (fun _ -> Char.chr (Prng.int rng 256))

let test_xor_kernel () =
  let rng = Prng.create 7 in
  for len = 0 to Block.size + 7 do
    let dst = random_bytes rng len in
    (* a longer src is allowed; only its first [len] bytes are folded in *)
    let src = random_bytes rng (len + Prng.int rng 9) in
    let src_before = Bytes.copy src in
    let expect = Bytes.copy dst in
    xor_into_bytewise expect src;
    Block.xor_into dst src;
    if not (Bytes.equal expect dst) then Alcotest.failf "length %d: xor differs" len;
    if not (Bytes.equal src_before src) then Alcotest.failf "length %d: src changed" len;
    (* the one-pass RMW kernel: dst = a ^ b ^ c *)
    let a = random_bytes rng len and c = random_bytes rng (len + Prng.int rng 9) in
    let expect3 = Bytes.copy a in
    xor_into_bytewise expect3 src;
    xor_into_bytewise expect3 c;
    let dst3 = random_bytes rng len in
    Block.xor3_into dst3 a src c;
    if not (Bytes.equal expect3 dst3) then Alcotest.failf "length %d: xor3 differs" len;
    Block.xor3_into a a src c;
    if not (Bytes.equal expect3 a) then Alcotest.failf "length %d: in-place xor3 differs" len
  done;
  List.iter
    (fun len ->
      try
        Block.xor_into (Bytes.make len 'a') (Bytes.make (len - 1) 'b');
        Alcotest.failf "src of %d bytes under a dst of %d accepted" (len - 1) len
      with Invalid_argument _ -> ())
    [ 1; 7; 8; 9; Block.size ]

(* A random mix of read-modify-write, full-stripe and degraded writes (a
   disk, parity included, fails for a few writes and is then rebuilt)
   keeps parity consistent, every gbn reads back its last write, and
   rebuilding any disk from the others gives back exactly its contents. *)
type raid_op = Write of int * int | Stripe of int * int | Degraded of int * raid_op list

let rec pp_raid_op = function
  | Write (g, seed) -> Printf.sprintf "write %d seed %d" g seed
  | Stripe (st, seed) -> Printf.sprintf "stripe %d seed %d" st seed
  | Degraded (d, ops) ->
    Printf.sprintf "degraded d%d [%s]" d (String.concat "; " (List.map pp_raid_op ops))

let gen_raid_ops =
  QCheck2.Gen.(
    let healthy =
      frequency
        [
          (3, map2 (fun g seed -> Write (g, seed)) (int_bound 127) nat);
          (1, map2 (fun st seed -> Stripe (st, seed)) (int_bound 31) nat);
        ]
    in
    list_size (int_range 1 30)
      (frequency
         [
           (4, healthy);
           ( 1,
             map2
               (fun d ops -> Degraded (d, ops))
               (int_bound 4)
               (list_size (int_range 1 6) healthy) );
         ]))

let prop_raid_parity =
  QCheck2.Test.make ~count:60 ~name:"raid4: parity holds over mixed and degraded writes"
    ~print:(fun ops -> String.concat "; " (List.map pp_raid_op ops))
    gen_raid_ops (fun ops ->
      let r = make_raid () in
      let width = Raid.data_disks r in
      let model = Array.init (Raid.data_blocks r) (fun _ -> Block.zero ()) in
      let random_block seed = random_bytes (Prng.create seed) Block.size in
      let rec apply = function
        | Write (g, seed) ->
          let b = random_block seed in
          Raid.write r g b;
          model.(g) <- b
        | Stripe (st, seed) ->
          let data = Array.init width (fun i -> random_block (seed + i)) in
          Raid.write_stripe r st data;
          Array.iteri (fun i b -> model.((st * width) + i) <- b) data
        | Degraded (d, ops) ->
          Raid.fail_disk r d;
          List.iter apply ops;
          Raid.rebuild_disk r d
      in
      List.iter apply ops;
      checkb "parity consistent" true (Raid.parity_consistent r);
      Array.iteri
        (fun g b ->
          if not (Bytes.equal b (Raid.read r g)) then Alcotest.failf "gbn %d reads wrong" g)
        model;
      Array.iteri
        (fun i d ->
          let before = Array.init (Raid.stripes r) (Disk.read d) in
          Raid.rebuild_disk r i;
          Array.iteri
            (fun st b ->
              if not (Bytes.equal b (Disk.read d st)) then
                Alcotest.failf "disk %d stripe %d: reconstruction differs" i st)
            before)
        (Raid.disks r);
      true)

(* Block ownership over a RAID group: random read-modify-write, full
   stripe and degraded writes (any disk, parity included, may be down),
   mixed with copying and borrowed reads. Every buffer handed to a write
   is scribbled on after the call and every copying read's result is
   scribbled on after the check; neither may change what the group holds.
   A borrowed block must read the model's contents and keep them until
   its gbn is written again. *)
type own_op =
  | O_write of int * int
  | O_stripe of int * int
  | O_read of int
  | O_borrow of int
  | O_fail of int
  | O_rebuild

let pp_own_op = function
  | O_write (g, seed) -> Printf.sprintf "write %d seed %d" g seed
  | O_stripe (st, seed) -> Printf.sprintf "stripe %d seed %d" st seed
  | O_read g -> Printf.sprintf "read %d" g
  | O_borrow g -> Printf.sprintf "borrow %d" g
  | O_fail d -> Printf.sprintf "fail d%d" d
  | O_rebuild -> "rebuild"

let gen_own_ops =
  QCheck2.Gen.(
    list_size (int_range 1 60)
      (frequency
         [
           (4, map2 (fun g seed -> O_write (g, seed)) (int_bound 127) nat);
           (1, map2 (fun st seed -> O_stripe (st, seed)) (int_bound 31) nat);
           (3, map (fun g -> O_read g) (int_bound 127));
           (3, map (fun g -> O_borrow g) (int_bound 127));
           (1, map (fun d -> O_fail d) (int_bound 4));
           (1, return O_rebuild);
         ]))

let scribble b = Bytes.fill b 0 (Bytes.length b) '\x5a'

let prop_block_ownership =
  QCheck2.Test.make ~count:100 ~name:"block ownership: writes copy, reads isolate, borrows hold"
    ~print:(fun ops -> String.concat "; " (List.map pp_own_op ops))
    gen_own_ops (fun ops ->
      let r = make_raid () in
      let width = Raid.data_disks r in
      let model = Array.init (Raid.data_blocks r) (fun _ -> Block.zero ()) in
      let down = ref None in
      (* live borrows: gbn, the borrowed block, its contents when taken *)
      let borrows = ref [] in
      let wrote g = borrows := List.filter (fun (g', _, _) -> g' <> g) !borrows in
      let expect what g b =
        if not (Bytes.equal b model.(g)) then Alcotest.failf "%s of gbn %d differs" what g
      in
      let apply = function
        | O_write (g, seed) ->
          let b = random_bytes (Prng.create seed) Block.size in
          Raid.write r g b;
          model.(g) <- Bytes.copy b;
          scribble b;
          wrote g
        | O_stripe (st, seed) ->
          let data = Array.init width (fun i -> random_bytes (Prng.create (seed + i)) Block.size) in
          Raid.write_stripe r st data;
          Array.iteri
            (fun i b ->
              model.((st * width) + i) <- Bytes.copy b;
              scribble b;
              wrote ((st * width) + i))
            data
        | O_read g ->
          let b = Raid.read r g in
          expect "read" g b;
          scribble b
        | O_borrow g ->
          let b = Raid.read_borrowed r g in
          expect "borrowed read" g b;
          borrows := (g, b, Bytes.copy b) :: !borrows
        | O_fail d ->
          if !down = None then begin
            Raid.fail_disk r d;
            down := Some d
          end
        | O_rebuild -> (
          match !down with
          | Some d ->
            Raid.rebuild_disk r d;
            down := None
          | None -> ())
      in
      List.iter
        (fun op ->
          apply op;
          List.iter
            (fun (g, b, was) ->
              if not (Bytes.equal b was) then
                Alcotest.failf "borrowed gbn %d changed before a write to it" g)
            !borrows)
        ops;
      Option.iter (fun d -> Raid.rebuild_disk r d) !down;
      checkb "parity consistent" true (Raid.parity_consistent r);
      Array.iteri
        (fun g _ ->
          expect "final read" g (Raid.read r g);
          expect "final borrowed read" g (Raid.read_borrowed r g))
        model;
      true)

let () =
  Alcotest.run "block"
    [
      ( "block",
        [
          Alcotest.test_case "helpers" `Quick test_block_helpers;
          Alcotest.test_case "xor kernel equals bytewise reference" `Quick test_xor_kernel;
        ] );
      ( "disk",
        [
          Alcotest.test_case "read/write" `Quick test_disk_read_write;
          Alcotest.test_case "borrowed reads and owned writes" `Quick test_disk_borrowed;
          Alcotest.test_case "seek model" `Quick test_disk_service_model;
          Alcotest.test_case "failure and revive" `Quick test_disk_failure;
        ] );
      ( "raid4",
        [
          Alcotest.test_case "addressing" `Quick test_raid_addressing;
          Alcotest.test_case "parity and reconstruction" `Quick
            test_raid_parity_and_reconstruction;
          Alcotest.test_case "write_stripe" `Quick test_raid_write_stripe;
          Alcotest.test_case "stripe writes cheaper than RMW" `Quick
            test_raid_stripe_write_cheaper;
          Alcotest.test_case "double failure raises" `Quick test_raid_double_failure;
          QCheck_alcotest.to_alcotest ~long:false prop_raid_parity;
          QCheck_alcotest.to_alcotest ~long:false prop_block_ownership;
        ] );
      ( "volume",
        [
          Alcotest.test_case "flat address space" `Quick test_volume_flat_space;
          Alcotest.test_case "write_batch" `Quick test_volume_write_batch;
          Alcotest.test_case "read_extent" `Quick test_volume_read_extent;
          Alcotest.test_case "disk loss and rebuild" `Quick test_volume_rebuild;
        ] );
      ( "volume properties",
        [ QCheck_alcotest.to_alcotest ~long:false prop_volume_batch_equals_singles ] );
    ]
