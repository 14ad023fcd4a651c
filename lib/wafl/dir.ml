(* Every function works on the packed bytes in place: a u16 count at offset
   0, then [count] entries of u32 inode number, u8 name length and name.
   Nothing decodes the block into a list except [entries]. *)

let block_size = 4096
let entry_header = 5

let empty_block () =
  let b = Bytes.make block_size '\000' in
  (* count = 0 is already encoded by the zero fill *)
  b

let truncated b pos n =
  raise
    (Repro_util.Serde.Corrupt
       (Printf.sprintf "truncated input: need %d bytes at offset %d (length %d)" n pos
          (Bytes.length b)))

let count b =
  if Bytes.length b < 2 then truncated b 0 2;
  Bytes.get_uint16_le b 0

let ino_at b pos = Int32.to_int (Bytes.get_int32_le b pos) land 0xffffffff

(* The offset just past the entry at [pos], which must lie in the block. *)
let next_entry b pos =
  if pos + entry_header > Bytes.length b then truncated b pos entry_header;
  let next = pos + entry_header + Bytes.get_uint8 b (pos + 4) in
  if next > Bytes.length b then
    truncated b (pos + entry_header) (next - pos - entry_header);
  next

let rec name_from b off name i len =
  i >= len
  || Bytes.unsafe_get b (off + i) = String.unsafe_get name i
     && name_from b off name (i + 1) len

(* The entry at [pos] (already bounds-checked by [next_entry]) is [name]. *)
let name_at b pos name =
  let len = String.length name in
  Bytes.get_uint8 b (pos + 4) = len && name_from b (pos + entry_header) name 0 len

(* Offset of the first entry named [name], or -1. Walks every entry, so a
   malformed block raises even when [name] comes before the damage. *)
let locate b name =
  let n = count b in
  let pos = ref 2 and found = ref (-1) in
  for _ = 1 to n do
    let p = !pos in
    pos := next_entry b p;
    if !found < 0 && name_at b p name then found := p
  done;
  !found

(* The offset just past the last entry. *)
let used b =
  let n = count b in
  let pos = ref 2 in
  for _ = 1 to n do
    pos := next_entry b !pos
  done;
  !pos

let entries b =
  let n = count b in
  let pos = ref 2 and acc = ref [] in
  for _ = 1 to n do
    let p = !pos in
    pos := next_entry b p;
    let name = Bytes.sub_string b (p + entry_header) (!pos - p - entry_header) in
    acc := (name, ino_at b p) :: !acc
  done;
  List.rev !acc

let find b name =
  match locate b name with -1 -> None | p -> Some (ino_at b p)

(* A zeroed block holding the first [len] bytes of [b]. *)
let copy_prefix b len =
  let d = Bytes.make block_size '\000' in
  Bytes.blit b 0 d 0 len;
  d

let set_ino b pos ino =
  if ino < 0 || ino > 0xffffffff then invalid_arg "Dir: inode number";
  Bytes.set_int32_le b pos (Int32.of_int ino)

let add ?(in_place = false) b name ino =
  let len = String.length name in
  if len = 0 || len > Layout.max_name_len then invalid_arg "Dir.add: bad name";
  let used = used b in
  let fin = used + entry_header + len in
  if fin > block_size then None
  else begin
    let d = if in_place then b else copy_prefix b used in
    set_ino d used ino;
    Bytes.set_uint8 d (used + 4) len;
    Bytes.blit_string name 0 d (used + entry_header) len;
    Bytes.set_uint16_le d 0 (count b + 1);
    if in_place then Bytes.fill d fin (block_size - fin) '\000';
    Some d
  end

let remove b name =
  if locate b name < 0 then None
  else begin
    let d = Bytes.make block_size '\000' in
    let n = count b in
    let pos = ref 2 and out = ref 2 and kept = ref 0 in
    for _ = 1 to n do
      let p = !pos in
      pos := next_entry b p;
      if not (name_at b p name) then begin
        Bytes.blit b p d !out (!pos - p);
        out := !out + (!pos - p);
        incr kept
      end
    done;
    Bytes.set_uint16_le d 0 !kept;
    Some d
  end

let replace b name ino =
  if locate b name < 0 then None
  else begin
    let d = copy_prefix b (used b) in
    let n = count b in
    let pos = ref 2 in
    for _ = 1 to n do
      let p = !pos in
      pos := next_entry b p;
      if name_at b p name then set_ino d p ino
    done;
    Some d
  end
