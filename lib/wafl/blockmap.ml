module Bitmap = Repro_util.Bitmap

let nplanes = Layout.nplanes
let words_per_block = 4096 / 4

(* The block-map file's own layout: one u32 little-endian word per vbn. *)
type t = { words : Bytes.t; nblocks : int }

let create ~nblocks =
  if nblocks <= 0 then invalid_arg "Blockmap.create";
  { words = Bytes.make (4 * nblocks) '\000'; nblocks }

let nblocks t = t.nblocks

let check t vbn =
  if vbn < 0 || vbn >= t.nblocks then
    invalid_arg (Printf.sprintf "Blockmap: vbn %d out of bounds [0,%d)" vbn t.nblocks)

let check_plane name p = if p < 0 || p >= nplanes then invalid_arg name

(* Unchecked beyond the Bytes bounds check: callers hold [0 <= vbn < nblocks]. *)
let get t vbn = Int32.to_int (Bytes.get_int32_le t.words (vbn lsl 2)) land 0xffffffff
let put t vbn w = Bytes.set_int32_le t.words (vbn lsl 2) (Int32.of_int w)

let word t vbn =
  check t vbn;
  get t vbn

let is_free_block t vbn = word t vbn = 0

let mark_allocated t vbn =
  check t vbn;
  put t vbn (get t vbn lor 1)

let mark_free t vbn =
  check t vbn;
  put t vbn (get t vbn land lnot 1)

let in_plane t ~plane vbn =
  check_plane "Blockmap.in_plane" plane;
  word t vbn land (1 lsl plane) <> 0

let in_active t vbn = in_plane t ~plane:0 vbn

(* The blocks whose word has a bit of [mask] set and no bit of [unless]. *)
let select t ~mask ~unless =
  let b = Bitmap.create t.nblocks in
  for vbn = 0 to t.nblocks - 1 do
    let w = get t vbn in
    if w land mask <> 0 && w land unless = 0 then Bitmap.set b vbn
  done;
  b

let plane_copy t p =
  check_plane "Blockmap.plane_copy" p;
  select t ~mask:(1 lsl p) ~unless:0

let plane_used t p =
  check_plane "Blockmap.plane_used" p;
  let bit = 1 lsl p in
  let n = ref 0 in
  for vbn = 0 to t.nblocks - 1 do
    if get t vbn land bit <> 0 then incr n
  done;
  !n

let active_used t = plane_used t 0
let active_plane t = plane_copy t 0

let find_free t ?avoid ~start () =
  let ok vbn =
    get t vbn = 0 && match avoid with Some a -> not (Bitmap.get a vbn) | None -> true
  in
  let rec scan vbn stop =
    if vbn >= stop then None else if ok vbn then Some vbn else scan (vbn + 1) stop
  in
  let start = if start < 0 || start >= t.nblocks then 0 else start in
  match scan start t.nblocks with Some v -> Some v | None -> scan 0 start

let capture_snapshot t ~plane =
  if plane <= 0 || plane >= nplanes then invalid_arg "Blockmap.capture_snapshot";
  let keep = lnot (1 lsl plane) in
  for vbn = 0 to t.nblocks - 1 do
    let w = get t vbn in
    put t vbn ((w land keep) lor ((w land 1) lsl plane))
  done

let clear_plane t p =
  if p <= 0 || p >= nplanes then invalid_arg "Blockmap.clear_plane";
  let bit = 1 lsl p in
  for vbn = 0 to t.nblocks - 1 do
    let w = get t vbn in
    if w land bit <> 0 then put t vbn (w lxor bit)
  done

let incremental_blocks t ~base ~target =
  check_plane "Blockmap.incremental_blocks" base;
  check_plane "Blockmap.incremental_blocks" target;
  select t ~mask:(1 lsl target) ~unless:(1 lsl base)

type block_state = Not_in_either | Newly_written | Deleted | Unchanged

let block_state ~in_base ~in_target =
  match (in_base, in_target) with
  | false, false -> Not_in_either
  | false, true -> Newly_written
  | true, false -> Deleted
  | true, true -> Unchanged

let state_included = function
  | Newly_written -> true
  | Not_in_either | Deleted | Unchanged -> false

let file_blocks ~nblocks = (nblocks + words_per_block - 1) / words_per_block

(* The bytes of file block [lbn] that hold map words; past the last vbn the
   file block is zero. *)
let file_span t lbn =
  if lbn < 0 then invalid_arg "Blockmap: negative file block";
  let off = lbn * 4096 in
  (off, max 0 (min 4096 (Bytes.length t.words - off)))

let encode_file_block t lbn =
  let off, len = file_span t lbn in
  let b = Bytes.create 4096 in
  if len > 0 then Bytes.blit t.words off b 0 len;
  Bytes.fill b len (4096 - len) '\000';
  b

let load_file_block t lbn block =
  let off, len = file_span t lbn in
  if len > 0 then Bytes.blit block 0 t.words off len
