# fnv1a64(<out_var> <path>): the 64-bit FNV-1a hash of the file's bytes as
# 16 lowercase hex digits. Computed in two 32-bit halves so every product
# fits CMake's signed 64-bit arithmetic: h * (2^40 + 0x1b3) mod 2^64.

# Zero-padded 8-digit lowercase hex of a 32-bit value.
function(crn_hex32 out_var value)
  math(EXPR hex "${value}" OUTPUT_FORMAT HEXADECIMAL)
  string(SUBSTRING "${hex}" 2 -1 hex)
  string(LENGTH "${hex}" length)
  math(EXPR pad "8 - ${length}")
  if(pad GREATER 0)
    string(REPEAT "0" ${pad} zeros)
    set(hex "${zeros}${hex}")
  endif()
  set(${out_var} "${hex}" PARENT_SCOPE)
endfunction()

function(fnv1a64 out_var path)
  file(READ "${path}" bytes HEX)
  string(REGEX MATCHALL ".." bytes "${bytes}")
  set(hi 3421674724)  # 0xcbf29ce4
  set(lo 2216829733)  # 0x84222325
  foreach(byte IN LISTS bytes)
    math(EXPR lo "${lo} ^ 0x${byte}")
    math(EXPR low_product "${lo} * 435")
    math(EXPR hi "(${hi} * 435 + (${low_product} >> 32) + ((${lo} & 0xFFFFFF) << 8)) & 0xFFFFFFFF")
    math(EXPR lo "${low_product} & 0xFFFFFFFF")
  endforeach()
  crn_hex32(hi_hex ${hi})
  crn_hex32(lo_hex ${lo})
  set(${out_var} "${hi_hex}${lo_hex}" PARENT_SCOPE)
endfunction()
