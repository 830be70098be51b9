type t = int

let line_size = 64
let page_size = 4096
let word_size = 8
let line_of a = a land lnot (line_size - 1)
let line_index a = a lsr 6
let page_of a = a land lnot (page_size - 1)
let page_index a = a lsr 12

let is_word_aligned a = a land (word_size - 1) = 0

let align_up a k =
  assert (k land (k - 1) = 0);
  (a + k - 1) land lnot (k - 1)
