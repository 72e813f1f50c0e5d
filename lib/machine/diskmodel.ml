let seek = 40_000

let per_block = 4_000

let service_time ~last_block ~block =
  if block = last_block + 1 || block = last_block then per_block
  else seek + per_block
