/* Native kernels for the LZ77/Deflate/lzfast/zstd-like codec stack.
 *
 * Compiled on demand by repro.compression._native with the host C
 * compiler and loaded through ctypes.  Each codec has exactly two
 * implementations: the Python reference in its module (the definition)
 * and the entries here, one per direction per codec, which take a page
 * (or a blob) and return the body and its mode in a single call:
 *
 *     deflate_compress   / deflate_decompress
 *     lzfast_compress    / lzfast_decompress
 *     zstdlike_compress  / zstdlike_decode_body
 *
 * plus lz77_tokenize and huffman_code_lengths, which the Python
 * matcher and table builder dispatch to on their own.  The Python side
 * treats any failure — no compiler, bad load, any negative return — as
 * "run the reference", so this file can assume nothing about
 * availability and must never be required for correctness.
 *
 * Exactness contract: token selection must match
 * Lz77Matcher._tokenize_packed_scalar decision-for-decision, Huffman
 * code lengths must match code_lengths_from_frequencies symbol for
 * symbol, and the encoders must pick the same block mode and emit the
 * same bit stream as their BitWriter-based references (LSB-first).
 * The kernels may reach those decisions more cheaply than the
 * references, never differently:
 *
 *   - the matcher visits the same chain candidates against the same
 *     budget; its quick reject tests byte 0 and bytes best_len-1 and
 *     best_len (the reference tests byte best_len alone), which skips
 *     only candidates a strictly longer match could not come from, and
 *     it extends a match eight bytes at a time;
 *   - the Huffman build pops the reference heap's (weight, id) sequence
 *     from two queues: the leaves sorted by (weight, id), and the
 *     merges in the order they are made.  Merges are made in
 *     nondecreasing weight (each weighs at least as much as anything
 *     popped before it) with increasing ids, so each queue's front is
 *     its least item, and on equal weight the leaf goes first because
 *     every leaf id is below every merge id;
 *   - the bit writer moves whole words, and the tokeniser keeps its
 *     hash heads in caller-provided scratch between calls (see
 *     tokenize_scratch_bytes) instead of clearing them.
 *
 * The decoders only have to be exact on *valid* streams: on any
 * malformed input they return a negative error and the caller re-runs
 * the Python decoder so error semantics (exception type and message)
 * stay Python's.  Every entry checks the capacity of every buffer it
 * writes, and the large scratch (hash chains, token arrays, full-width
 * decode tables) is the caller's or malloc'd, never stack.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define HASH_BITS 15
#define HASH_SIZE (1 << HASH_BITS)
#define HASH_MASK (HASH_SIZE - 1)
#define HASH_MULT 2654435761u

#define PACKED_LENGTH_BITS 9
#define PACKED_LENGTH_MASK ((1 << PACKED_LENGTH_BITS) - 1)

#define NUM_LITLEN 286
#define NUM_DIST 30
#define NUM_CODELEN 19
#define EOB 256
#define MAX_CODE_LEN 15

/* Eight bytes as a little-endian word. */
static inline uint64_t load_le64(const uint8_t *p)
{
    uint64_t v;
    memcpy(&v, p, 8);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    v = __builtin_bswap64(v);
#endif
    return v;
}

/* ------------------------------------------------------------------ */
/* LZ77 tokenizer                                                      */
/* ------------------------------------------------------------------ */

/* Length of the common prefix of `a` and `b`, at most `max_len`: eight
 * bytes at a time while eight remain (the first differing byte is the
 * lowest set byte of the XOR), then bytewise.  No load reaches
 * a + max_len or b + max_len. */
static inline int64_t common_prefix(
    const uint8_t *a, const uint8_t *b, int64_t max_len)
{
    int64_t length = 0;
    for (; length + 8 <= max_len; length += 8) {
        uint64_t diff = load_le64(a + length) ^ load_le64(b + length);
        if (diff)
            return length + (__builtin_ctzll(diff) >> 3);
    }
    while (length < max_len && a[length] == b[length])
        length++;
    return length;
}

static inline uint16_t load16(const uint8_t *p)
{
    uint16_t v;
    memcpy(&v, p, 2);
    return v;
}

static inline int64_t best_match_at(
    const uint8_t *data, const int32_t *prev, int64_t n, int64_t pos,
    int64_t min_match, int64_t max_match, int64_t max_chain,
    int64_t window_size)
{
    if (pos + min_match > n)
        return 0;
    int64_t candidate = prev[pos];
    int64_t floor = pos - window_size;
    if (floor < 0)
        floor = 0;
    if (candidate < floor)
        return 0;
    int64_t best_len = min_match - 1; /* >= 2 */
    int64_t best_dist = 0;
    int64_t max_len = (n - pos > max_match) ? max_match : n - pos;
    int64_t budget = max_chain;
    const uint8_t *b = data + pos;
    /* best_len < max_len <= n - pos keeps every load below in bounds
     * (candidate < pos). */
    uint16_t tail = load16(b + best_len - 1);
    while (candidate >= floor && budget > 0) {
        budget--;
        const uint8_t *a = data + candidate;
        /* Quick reject: a strictly longer match agrees on bytes
         * 0..best_len, so a candidate that differs at byte 0 or at
         * best_len-1..best_len cannot win.  The reference checks byte
         * best_len alone; both skip only losers, so the chosen match
         * is the same. */
        if (a[0] != b[0] || load16(a + best_len - 1) != tail) {
            candidate = prev[candidate];
            continue;
        }
        int64_t length = common_prefix(a, b, max_len);
        if (length > best_len) {
            best_len = length;
            best_dist = pos - candidate;
            if (length >= max_len)
                break;
            tail = load16(b + best_len - 1);
        }
        candidate = prev[candidate];
    }
    if (best_len >= min_match)
        return (best_dist << PACKED_LENGTH_BITS) | best_len;
    return 0;
}

/* Bytes of tokeniser scratch for an `n`-byte input: the HASH_SIZE
 * int32 hash heads, an int64 epoch, then n int64 token slots and n
 * int32 chain links.  Each call numbers its positions from one past
 * the epoch it finds and leaves the epoch past its last number, so the
 * heads earlier calls left read as empty and are never cleared between
 * calls.  A zeroed block is ready to use, and one block serves every
 * input up to the `n` it was sized for. */
int64_t tokenize_scratch_bytes(int64_t n)
{
    return HASH_SIZE * (int64_t)sizeof(int32_t) + (int64_t)sizeof(int64_t)
        + n * (int64_t)(sizeof(int64_t) + sizeof(int32_t));
}

/* The token slots of a tokenize_scratch_bytes block. */
static inline int64_t *scratch_tokens(uint8_t *scratch)
{
    return (int64_t *)(scratch + HASH_SIZE * sizeof(int32_t)) + 1;
}

/* Tokenize one buffer into `out` (n slots; it may be the token slots
 * of `scratch` itself) and return the number of packed tokens.
 * `scratch` is a tokenize_scratch_bytes(n) block as described there. */
int64_t lz77_tokenize(
    const uint8_t *data, int64_t n,
    int64_t window_size, int64_t min_match, int64_t max_match,
    int64_t max_chain, int64_t lazy, uint8_t *scratch, int64_t *out)
{
    int64_t ntok = 0;
    if (n <= 0)
        return 0;
    int32_t *head = (int32_t *)scratch;
    int64_t *epoch = (int64_t *)(head + HASH_SIZE);
    int32_t *prev = (int32_t *)(scratch_tokens(scratch) + n);
    memset(prev, 0xFF, (size_t)n * sizeof(int32_t));
    if (n >= 3) {
        /* Number this call's positions from one past the epoch; when
         * that would leave the int32 range, clear the heads and start
         * over. */
        int64_t last = *epoch;
        if (last < 0 || last >= INT32_MAX - n) {
            memset(head, 0, HASH_SIZE * sizeof(int32_t));
            last = 0;
        }
        int64_t base = last + 1;
        *epoch = base + n;
        uint32_t key = (uint32_t)data[0] | ((uint32_t)data[1] << 8);
        for (int64_t i = 0; i + 2 < n; i++) {
            key |= (uint32_t)data[i + 2] << 16;
            uint32_t h = ((key * HASH_MULT) >> 16) & HASH_MASK;
            /* The range check also keeps a block that was never
             * zeroed from linking anywhere but an earlier position. */
            int64_t link = (int64_t)head[h] - base;
            prev[i] = (uint64_t)link < (uint64_t)i ? (int32_t)link : -1;
            head[h] = (int32_t)(base + i);
            key >>= 8;
        }
    }
    int64_t lazy_limit = n - min_match - 1;
    int64_t pos = 0;
    int64_t pending = -1;
    while (pos < n) {
        int64_t match;
        if (pending >= 0) {
            match = pending;
            pending = -1;
        } else {
            match = (prev[pos] >= 0)
                ? best_match_at(data, prev, n, pos, min_match, max_match,
                                max_chain, window_size)
                : 0;
        }
        if (match == 0) {
            out[ntok++] = data[pos];
            pos++;
            continue;
        }
        if (lazy && pos <= lazy_limit) {
            int64_t next_match = (prev[pos + 1] >= 0)
                ? best_match_at(data, prev, n, pos + 1, min_match, max_match,
                                max_chain, window_size)
                : 0;
            if (next_match != 0 &&
                (next_match & PACKED_LENGTH_MASK) > (match & PACKED_LENGTH_MASK)) {
                out[ntok++] = data[pos];
                pos++;
                pending = next_match;
                continue;
            }
        }
        out[ntok++] = match;
        pos += match & PACKED_LENGTH_MASK;
    }
    return ntok;
}

/* ------------------------------------------------------------------ */
/* Bit reader / writer (LSB-first, as repro.compression.bitio)        */
/* ------------------------------------------------------------------ */

typedef struct {
    const uint8_t *d;
    int64_t len;
    int64_t pos;
    uint64_t acc;
    int nbits;
} BitRd;

/* Callers refill below 16 buffered bits.  While eight bytes remain one
 * word load tops the accumulator up to 56..63 bits; the bytes it loads
 * past the counted ones are the stream's own next bits, which a later
 * refill ORs in again unchanged.  The last bytes go one at a time, so
 * bits past the end of the stream still read as zeros. */
static inline void br_refill(BitRd *r)
{
    if (r->len - r->pos >= 8) {
        r->acc |= load_le64(r->d + r->pos) << r->nbits;
        int take = (63 - r->nbits) >> 3;
        r->pos += take;
        r->nbits += take << 3;
        return;
    }
    while (r->nbits <= 56 && r->pos < r->len) {
        r->acc |= (uint64_t)r->d[r->pos++] << r->nbits;
        r->nbits += 8;
    }
}

static inline int br_read(BitRd *r, int n, uint32_t *v)
{
    if (r->nbits < n) {
        br_refill(r);
        if (r->nbits < n)
            return -1;
    }
    *v = (uint32_t)(r->acc & ((1u << n) - 1));
    r->acc >>= n;
    r->nbits -= n;
    return 0;
}

/* bitio.read_varint_bits: 7-bit groups behind a continue bit, at most
 * six groups (the Python reader raises once shift passes 35).  A group
 * and its continue bit are read as one byte-wide field; a stream that
 * ends inside one fails either way. */
static inline int br_varint(BitRd *r, int64_t *value)
{
    int64_t v = 0;
    int shift = 0;
    for (;;) {
        uint32_t group;
        if (br_read(r, 8, &group))
            return -1;
        v |= (int64_t)(group >> 1) << shift;
        if (!(group & 1))
            break;
        shift += 7;
        if (shift > 35)
            return -1;
    }
    *value = v;
    return 0;
}

/* Bit writer (LSB-first, matches repro.compression.bitio.BitWriter). */
typedef struct {
    uint8_t *out;
    int64_t cap;
    int64_t len;
    uint64_t acc;
    int nbits;
} BitWr;

/* The accumulator's whole bytes, one at a time; -1 when they do not
 * fit the buffer. */
static int bw_drain(BitWr *w)
{
    while (w->nbits >= 8) {
        if (w->len >= w->cap)
            return -1;
        w->out[w->len++] = (uint8_t)(w->acc & 0xFF);
        w->acc >>= 8;
        w->nbits -= 8;
    }
    return 0;
}

/* nbits <= 32 per call; fewer than 32 bits are ever left pending.  Once
 * 32 are pending they leave as one eight-byte store while eight bytes
 * of room remain: the bytes past the whole ones it writes are the
 * pending bits and zeros, which the next store overwrites. */
static inline int bw_write(BitWr *w, uint64_t value, int nbits)
{
    w->acc |= value << w->nbits;
    w->nbits += nbits;
    if (w->nbits < 32)
        return 0;
    if (w->cap - w->len < 8)
        return bw_drain(w);
    uint64_t word = w->acc;
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    word = __builtin_bswap64(word);
#endif
    memcpy(w->out + w->len, &word, 8);
    int bytes = w->nbits >> 3;
    w->len += bytes;
    w->acc >>= bytes << 3;
    w->nbits &= 7;
    return 0;
}

/* bitio.write_varint_bits: continue bit then a 7-bit group. */
static inline int bw_varint(BitWr *w, uint64_t value)
{
    for (;;) {
        uint64_t chunk = value & 0x7F;
        value >>= 7;
        if (bw_write(w, (value ? 1 : 0) | (chunk << 1), 8))
            return -1;
        if (!value)
            return 0;
    }
}

/* BitWriter.align_to_byte, then every pending byte into the buffer:
 * the stream is complete. */
static inline int bw_finish(BitWr *w)
{
    w->nbits = (w->nbits + 7) & ~7;
    return bw_drain(w);
}

/* lz77.extend_match: append `length` bytes that start `offset` (>= 1)
 * bytes back, with `room` >= `length` bytes writable at `dst`.  A far
 * source with 15 bytes of slack goes in fixed 16-byte moves (the bytes
 * written past `length` are overwritten by whatever the decoder appends
 * next).  Otherwise, when the source overlaps the bytes being written,
 * each round copies one whole period and the period doubles. */
static inline void copy_match(
    uint8_t *dst, int64_t offset, int64_t length, int64_t room)
{
    const uint8_t *src = dst - offset;
    if (offset >= 16 && length + 15 <= room) {
        for (int64_t i = 0; i < length; i += 16)
            memcpy(dst + i, src + i, 16);
        return;
    }
    while (length > offset) {
        memcpy(dst, src, (size_t)offset);
        dst += offset;
        length -= offset;
        offset += offset;
    }
    memcpy(dst, src, (size_t)length);
}

/* ------------------------------------------------------------------ */
/* Huffman code lengths                                                */
/* ------------------------------------------------------------------ */

/* Largest alphabet the kernel takes (deflate's litlen is 286) and the
 * largest single frequency, so summed weights stay far inside int64.
 * Anything beyond either is left to Python's unbounded integers. */
#define HUFF_MAX_SYMBOLS 512
#define HUFF_MAX_FREQ ((int64_t)1 << 48)
/* A leaf sorts as (frequency << HUFF_ID_BITS) | id, below 2**57. */
#define HUFF_ID_BITS 9
#define HUFF_ID_MASK ((1 << HUFF_ID_BITS) - 1)

/* Sort `m` distinct keys ascending by LSD radix over their bytes up to
 * the highest set one, moving them between `a` and `tmp`; returns the
 * array that holds the result. */
static uint64_t *radix_sort(uint64_t *a, uint64_t *tmp, int m, uint64_t top)
{
    for (int shift = 0; shift < 64 && (top >> shift); shift += 8) {
        int start[257] = {0};
        for (int i = 0; i < m; i++)
            start[((a[i] >> shift) & 0xFF) + 1]++;
        for (int d = 0; d < 256; d++)
            start[d + 1] += start[d];
        for (int i = 0; i < m; i++)
            tmp[start[(a[i] >> shift) & 0xFF]++] = a[i];
        uint64_t *t = a;
        a = tmp;
        tmp = t;
    }
    return a;
}

/* Translation of huffman.code_lengths_from_frequencies: Huffman tree
 * over the symbols with non-zero frequency (a symbol's depth is the
 * number of merges above its leaf), lengths clamped to max_length,
 * then the Kraft sum repaired by lengthening codes round-robin over
 * the stable (length, -frequency) order.  Returns 0 with `lengths`
 * filled, or a negative code when the input is outside what the
 * kernel handles (the caller runs the Python builder, which also owns
 * the error for more used symbols than 2**max_length codes). */
int64_t huffman_code_lengths(
    const int64_t *freq, int64_t n, int64_t max_length, uint8_t *lengths)
{
    if (n < 0 || n > HUFF_MAX_SYMBOLS
        || max_length < 1 || max_length > MAX_CODE_LEN)
        return -1;
    int32_t used[HUFF_MAX_SYMBOLS];
    int m = 0;
    memset(lengths, 0, (size_t)n);
    for (int s = 0; s < n; s++) {
        if (freq[s] <= 0)
            continue;
        if (freq[s] > HUFF_MAX_FREQ)
            return -1;
        used[m++] = s;
    }
    if (m == 0)
        return 0;
    if (m == 1) {
        /* A single-symbol alphabet still needs a 1-bit code. */
        lengths[used[0]] = 1;
        return 0;
    }
    if (m > ((int64_t)1 << max_length))
        return -2;

    /* Leaves take ids 0..m-1 in symbol order, each merge the next id,
     * exactly the tiebreak counter of the Python heap, whose pop order
     * the two queues reproduce (see the top of this file). */
    uint64_t keys[HUFF_MAX_SYMBOLS], tmp[HUFF_MAX_SYMBOLS];
    uint64_t top = 0;
    for (int i = 0; i < m; i++) {
        keys[i] = ((uint64_t)freq[used[i]] << HUFF_ID_BITS) | (uint64_t)i;
        top |= keys[i];
    }
    const uint64_t *leaf = radix_sort(keys, tmp, m, top);
    int64_t merged[HUFF_MAX_SYMBOLS];
    int32_t parent[2 * HUFF_MAX_SYMBOLS];
    int32_t depth[2 * HUFF_MAX_SYMBOLS];
    int next_leaf = 0, next_merge = 0;
    int next = m;
    for (; next < 2 * m - 1; next++) {
        int64_t weight = 0;
        for (int pick = 0; pick < 2; pick++) {
            int id;
            if (next_leaf < m
                && (next_merge == next - m
                    || (int64_t)(leaf[next_leaf] >> HUFF_ID_BITS)
                           <= merged[next_merge])) {
                id = (int)(leaf[next_leaf] & HUFF_ID_MASK);
                weight += (int64_t)(leaf[next_leaf++] >> HUFF_ID_BITS);
            } else {
                id = m + next_merge;
                weight += merged[next_merge++];
            }
            parent[id] = next;
        }
        merged[next - m] = weight;
    }
    depth[next - 1] = 0;
    for (int id = next - 2; id >= 0; id--)
        depth[id] = depth[parent[id]] + 1; /* parent[id] > id */

    int64_t kraft = 0;
    for (int i = 0; i < m; i++) {
        int l = depth[i] < max_length ? depth[i] : (int)max_length;
        lengths[used[i]] = (uint8_t)l;
        kraft += (int64_t)1 << (max_length - l);
    }
    int64_t budget = (int64_t)1 << max_length;
    if (kraft > budget) {
        /* sorted(used, key=(length, -frequency)): insertion sort keeps
         * symbol order on ties, as Python's stable sort does. */
        int32_t order[HUFF_MAX_SYMBOLS];
        for (int i = 0; i < m; i++) {
            int s = used[i];
            int j = i;
            while (j > 0) {
                int t = order[j - 1];
                if (lengths[t] < lengths[s]
                    || (lengths[t] == lengths[s] && freq[t] >= freq[s]))
                    break;
                order[j] = t;
                j--;
            }
            order[j] = s;
        }
        for (int64_t idx = 0; kraft > budget; idx++) {
            int s = order[idx % m];
            if (lengths[s] < max_length) {
                kraft -= (int64_t)1 << (max_length - lengths[s]);
                lengths[s]++;
                kraft += (int64_t)1 << (max_length - lengths[s]);
            }
        }
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* Canonical Huffman decode table (full-width, LSB-indexed)            */
/* ------------------------------------------------------------------ */

/* Each byte value with its eight bits in reverse order. */
static const uint8_t REV8[256] = {
    0x00, 0x80, 0x40, 0xc0, 0x20, 0xa0, 0x60, 0xe0, 0x10, 0x90, 0x50, 0xd0,
    0x30, 0xb0, 0x70, 0xf0, 0x08, 0x88, 0x48, 0xc8, 0x28, 0xa8, 0x68, 0xe8,
    0x18, 0x98, 0x58, 0xd8, 0x38, 0xb8, 0x78, 0xf8, 0x04, 0x84, 0x44, 0xc4,
    0x24, 0xa4, 0x64, 0xe4, 0x14, 0x94, 0x54, 0xd4, 0x34, 0xb4, 0x74, 0xf4,
    0x0c, 0x8c, 0x4c, 0xcc, 0x2c, 0xac, 0x6c, 0xec, 0x1c, 0x9c, 0x5c, 0xdc,
    0x3c, 0xbc, 0x7c, 0xfc, 0x02, 0x82, 0x42, 0xc2, 0x22, 0xa2, 0x62, 0xe2,
    0x12, 0x92, 0x52, 0xd2, 0x32, 0xb2, 0x72, 0xf2, 0x0a, 0x8a, 0x4a, 0xca,
    0x2a, 0xaa, 0x6a, 0xea, 0x1a, 0x9a, 0x5a, 0xda, 0x3a, 0xba, 0x7a, 0xfa,
    0x06, 0x86, 0x46, 0xc6, 0x26, 0xa6, 0x66, 0xe6, 0x16, 0x96, 0x56, 0xd6,
    0x36, 0xb6, 0x76, 0xf6, 0x0e, 0x8e, 0x4e, 0xce, 0x2e, 0xae, 0x6e, 0xee,
    0x1e, 0x9e, 0x5e, 0xde, 0x3e, 0xbe, 0x7e, 0xfe, 0x01, 0x81, 0x41, 0xc1,
    0x21, 0xa1, 0x61, 0xe1, 0x11, 0x91, 0x51, 0xd1, 0x31, 0xb1, 0x71, 0xf1,
    0x09, 0x89, 0x49, 0xc9, 0x29, 0xa9, 0x69, 0xe9, 0x19, 0x99, 0x59, 0xd9,
    0x39, 0xb9, 0x79, 0xf9, 0x05, 0x85, 0x45, 0xc5, 0x25, 0xa5, 0x65, 0xe5,
    0x15, 0x95, 0x55, 0xd5, 0x35, 0xb5, 0x75, 0xf5, 0x0d, 0x8d, 0x4d, 0xcd,
    0x2d, 0xad, 0x6d, 0xed, 0x1d, 0x9d, 0x5d, 0xdd, 0x3d, 0xbd, 0x7d, 0xfd,
    0x03, 0x83, 0x43, 0xc3, 0x23, 0xa3, 0x63, 0xe3, 0x13, 0x93, 0x53, 0xd3,
    0x33, 0xb3, 0x73, 0xf3, 0x0b, 0x8b, 0x4b, 0xcb, 0x2b, 0xab, 0x6b, 0xeb,
    0x1b, 0x9b, 0x5b, 0xdb, 0x3b, 0xbb, 0x7b, 0xfb, 0x07, 0x87, 0x47, 0xc7,
    0x27, 0xa7, 0x67, 0xe7, 0x17, 0x97, 0x57, 0xd7, 0x37, 0xb7, 0x77, 0xf7,
    0x0f, 0x8f, 0x4f, 0xcf, 0x2f, 0xaf, 0x6f, 0xef, 0x1f, 0x9f, 0x5f, 0xdf,
    0x3f, 0xbf, 0x7f, 0xff};

/* huffman.canonical_codes with each code bit-reversed over its length:
 * the LSB-first form HuffmanTable.codes_lsb holds and the bit stream
 * carries.  Lengths are <= MAX_CODE_LEN and not oversubscribed. */
static void canonical_codes_lsb(
    const uint8_t *lengths, int nsym, uint16_t *codes)
{
    int bl_count[MAX_CODE_LEN + 1] = {0};
    int next_code[MAX_CODE_LEN + 1] = {0};
    for (int s = 0; s < nsym; s++)
        if (lengths[s])
            bl_count[lengths[s]]++;
    int code = 0;
    for (int bits = 1; bits <= MAX_CODE_LEN; bits++) {
        code = (code + bl_count[bits - 1]) << 1;
        next_code[bits] = code;
    }
    for (int s = 0; s < nsym; s++) {
        int l = lengths[s];
        int c = l ? next_code[l]++ : 0;
        /* Reverse all 16 bits, then keep the reversed low l. */
        uint32_t rev = ((uint32_t)REV8[c & 0xFF] << 8) | REV8[(c >> 8) & 0xFF];
        codes[s] = (uint16_t)(rev >> (16 - l));
    }
}

/* Entries pack (code_length << 16) | symbol; 0 marks invalid.  Unlike
 * the Python decoder's 10-bit root table + slow path, the table spans
 * the full max code length, so every valid code resolves in one
 * lookup.  Returns the table width in bits, 0 when no symbol has a
 * code. */
static int build_decoder(const uint8_t *lengths, int nsym, uint32_t *table)
{
    int max_len = 0;
    int64_t kraft = 0;
    if (nsym > NUM_LITLEN)
        return -1;
    for (int s = 0; s < nsym; s++) {
        int l = lengths[s];
        if (l > MAX_CODE_LEN)
            return -1;
        if (l) {
            kraft += (int64_t)1 << (MAX_CODE_LEN - l);
            if (l > max_len)
                max_len = l;
        }
    }
    if (!max_len)
        return 0;
    if (kraft > ((int64_t)1 << MAX_CODE_LEN))
        return -1; /* oversubscribed lengths; let Python diagnose */
    uint16_t codes[NUM_LITLEN];
    canonical_codes_lsb(lengths, nsym, codes);
    memset(table, 0, sizeof(uint32_t) << max_len);
    for (int s = 0; s < nsym; s++) {
        int l = lengths[s];
        if (!l)
            continue;
        uint32_t entry = ((uint32_t)l << 16) | (uint32_t)s;
        for (uint32_t idx = codes[s]; idx < (1u << max_len); idx += (1u << l))
            table[idx] = entry;
    }
    return max_len;
}

/* One symbol through a build_decoder table of `width` bits (peeks past
 * the end of the stream read as zeros, like BitReader.peek_bits); -1 on
 * an invalid code or when the matched code overruns the stream. */
static inline int br_decode(BitRd *r, const uint32_t *table, int width)
{
    if (r->nbits < width)
        br_refill(r);
    uint32_t entry = table[r->acc & ((1u << width) - 1)];
    int clen = (int)(entry >> 16);
    if (!entry || clen > r->nbits)
        return -1;
    r->acc >>= clen;
    r->nbits -= clen;
    return (int)(entry & 0xFFFF);
}

/* ------------------------------------------------------------------ */
/* Deflate                                                             */
/* ------------------------------------------------------------------ */

#define MODE_STORED 0
#define MODE_HUFFMAN 1
#define MODE_HUFFMAN_FIXED 2
#define MODE_HUFFMAN_STATIC 3
#define STATIC_FORMAT_VERSION 1

/* RFC 1951 3.2.5: base value and extra-bit count of length codes
 * 257..285 and distance codes 0..29.  deflate.py derives the same
 * tables (_LENGTH_CODES, _DIST_CODES); test_codec_differential.py
 * holds the two copies together code by code. */
static const uint16_t LEN_BASE[29] = {
    3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51,
    59, 67, 83, 99, 115, 131, 163, 195, 227, 258};
static const uint8_t LEN_EXTRA[29] = {
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4,
    4, 5, 5, 5, 5, 0};
static const uint16_t DIST_BASE[30] = {
    1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385,
    513, 769, 1025, 1537, 2049, 3073, 4097, 6145, 8193, 12289, 16385,
    24577};
static const uint8_t DIST_EXTRA[30] = {
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10,
    10, 11, 11, 12, 12, 13, 13};

/* deflate._length_to_code / _distance_to_code: the last code whose
 * base does not exceed the value (index into the tables above).  Past
 * the first codes, each pair (distances) or quad (lengths) of codes
 * shares one power of two, so the code is twice (four times) that
 * power's exponent plus the next bit (two bits) below it. */
static inline int length_code(int64_t length)
{
    if (length >= 258)
        return 28;
    uint32_t x = (uint32_t)(length - 3);
    if (x < 8)
        return (int)x;
    int k = 31 - __builtin_clz(x);
    return 4 * k - 4 + (int)((x >> (k - 2)) & 3);
}

static inline int dist_code(int64_t distance)
{
    uint32_t x = (uint32_t)(distance - 1);
    if (x < 4)
        return (int)x;
    int k = 31 - __builtin_clz(x);
    return 2 * k + (int)((x >> (k - 1)) & 1);
}

/* RFC 1951 3.2.6 fixed code lengths. */
static void fixed_lengths(uint8_t *ll_lengths, uint8_t *d_lengths)
{
    memset(ll_lengths, 8, 144);
    memset(ll_lengths + 144, 9, 112);
    memset(ll_lengths + 256, 7, 24);
    memset(ll_lengths + 280, 8, NUM_LITLEN - 280);
    memset(d_lengths, 5, NUM_DIST);
}

/* Symbol frequencies of one token stream, end-of-block included;
 * returns the extra-bit payload its matches carry, -1 on a token no
 * deflate code can express. */
static int64_t count_symbols(
    const int64_t *tokens, int64_t ntok, int64_t *ll_freq, int64_t *d_freq)
{
    int64_t extra_bits = 0;
    memset(ll_freq, 0, NUM_LITLEN * sizeof(int64_t));
    memset(d_freq, 0, NUM_DIST * sizeof(int64_t));
    for (int64_t t = 0; t < ntok; t++) {
        int64_t tok = tokens[t];
        if (tok < 256) {
            ll_freq[tok]++;
            continue;
        }
        int64_t length = tok & PACKED_LENGTH_MASK;
        int64_t distance = tok >> PACKED_LENGTH_BITS;
        if (length < 3 || length > 258 || distance < 1 || distance > (1 << 15))
            return -1;
        int lc = length_code(length), dc = dist_code(distance);
        ll_freq[257 + lc]++;
        d_freq[dc]++;
        extra_bits += LEN_EXTRA[lc] + DIST_EXTRA[dc];
    }
    ll_freq[EOB]++;
    return extra_bits;
}

/* Exact bit cost of the symbol stream under the given code lengths,
 * -1 when a symbol in use has no code. */
static int64_t symbol_bits(
    const int64_t *ll_freq, const int64_t *d_freq, int64_t extra_bits,
    const uint8_t *ll_lengths, const uint8_t *d_lengths)
{
    int64_t bits = extra_bits;
    for (int s = 0; s < NUM_LITLEN; s++) {
        if (ll_freq[s] && !ll_lengths[s])
            return -1;
        bits += ll_freq[s] * ll_lengths[s];
    }
    for (int s = 0; s < NUM_DIST; s++) {
        if (d_freq[s] && !d_lengths[s])
            return -1;
        bits += d_freq[s] * d_lengths[s];
    }
    return bits;
}

/* deflate._rle_code_lengths: run-length code a code-length vector per
 * RFC 1951 into (symbol, extra) pairs — 0..15 are literal lengths, 16
 * repeats the previous length 3-6 times, 17 is 3-10 zeros, 18 is
 * 11-138 zeros.  Returns the pair count (at most n). */
static int rle_code_lengths(
    const uint8_t *lengths, int n, uint8_t *sym, uint8_t *extra)
{
    int count = 0, prev = -1, chunk;
#define EMIT(s, e) (sym[count] = (uint8_t)(s), extra[count++] = (uint8_t)(e))
    for (int i = 0; i < n;) {
        int value = lengths[i], run = 1;
        while (i + run < n && lengths[i + run] == value)
            run++;
        i += run;
        if (value == 0) {
            for (; run >= 11; run -= chunk) {
                chunk = run < 138 ? run : 138;
                EMIT(18, chunk - 11);
            }
            for (; run >= 3; run -= chunk) {
                chunk = run < 10 ? run : 10;
                EMIT(17, chunk - 3);
            }
        } else {
            if (value != prev) {
                EMIT(value, 0);
                run--;
            }
            for (; run >= 3; run -= chunk) {
                chunk = run < 6 ? run : 6;
                EMIT(16, chunk - 3);
            }
        }
        for (; run > 0; run--)
            EMIT(value, 0);
        prev = value;
    }
#undef EMIT
    return count;
}

/* Bits a header may take: the 19 x 3-bit lengths, a two-group varint,
 * and one 7-bit code plus 7 extra bits per code length. */
#define TABLE_HEADER_MAX_BYTES \
    ((3 * NUM_CODELEN + 16 + 14 * (NUM_LITLEN + NUM_DIST)) / 8 + 1)

/* deflate._write_table_header: 19 x 3-bit lengths of the code-length
 * code, a bit-varint count of RLE pairs, then the RLE'd litlen+dist
 * code lengths under that (at most 7-bit) code. */
static int write_table_header(
    BitWr *w, const uint8_t *ll_lengths, const uint8_t *d_lengths)
{
    enum { TOTAL = NUM_LITLEN + NUM_DIST };
    uint8_t lengths[TOTAL], sym[TOTAL], extra[TOTAL];
    memcpy(lengths, ll_lengths, NUM_LITLEN);
    memcpy(lengths + NUM_LITLEN, d_lengths, NUM_DIST);
    int count = rle_code_lengths(lengths, TOTAL, sym, extra);
    int64_t cl_freq[NUM_CODELEN] = {0};
    for (int i = 0; i < count; i++)
        cl_freq[sym[i]]++;
    uint8_t cl_lengths[NUM_CODELEN];
    uint16_t cl_codes[NUM_CODELEN];
    if (huffman_code_lengths(cl_freq, NUM_CODELEN, 7, cl_lengths))
        return -1;
    canonical_codes_lsb(cl_lengths, NUM_CODELEN, cl_codes);
    for (int s = 0; s < NUM_CODELEN; s++)
        if (bw_write(w, cl_lengths[s], 3))
            return -1;
    if (bw_varint(w, (uint64_t)count))
        return -1;
    for (int i = 0; i < count; i++) {
        int s = sym[i];
        int extra_bits = s == 16 ? 2 : (s == 17 ? 3 : (s == 18 ? 7 : 0));
        if (bw_write(w, cl_codes[s], cl_lengths[s])
            || bw_write(w, extra[i], extra_bits))
            return -1;
    }
    return 0;
}

/* The Huffman-coded tokens, the end-of-block symbol, then zero bits to
 * the next byte boundary. */
static int write_symbols(
    BitWr *w, const int64_t *tokens, int64_t ntok,
    const uint8_t *ll_lengths, const uint8_t *d_lengths)
{
    uint16_t ll_codes[NUM_LITLEN], d_codes[NUM_DIST];
    canonical_codes_lsb(ll_lengths, NUM_LITLEN, ll_codes);
    canonical_codes_lsb(d_lengths, NUM_DIST, d_codes);
    for (int64_t t = 0; t < ntok; t++) {
        int64_t tok = tokens[t];
        if (tok < 256) {
            if (bw_write(w, ll_codes[tok], ll_lengths[tok]))
                return -1;
            continue;
        }
        int64_t length = tok & PACKED_LENGTH_MASK;
        int64_t distance = tok >> PACKED_LENGTH_BITS;
        int lc = length_code(length), dc = dist_code(distance);
        /* Each code with its extra bits in one write (<= 20 and <= 28
         * bits). */
        int ll_bits = ll_lengths[257 + lc], d_bits = d_lengths[dc];
        if (bw_write(w, ll_codes[257 + lc]
                         | (uint64_t)(length - LEN_BASE[lc]) << ll_bits,
                     ll_bits + LEN_EXTRA[lc])
            || bw_write(w, d_codes[dc]
                            | (uint64_t)(distance - DIST_BASE[dc]) << d_bits,
                        d_bits + DIST_EXTRA[dc]))
            return -1;
    }
    if (bw_write(w, ll_codes[EOB], ll_lengths[EOB]))
        return -1;
    return bw_finish(w);
}

/* Elect the block mode for one token stream exactly as the reference
 * does — stored (`n` bytes), then the dynamic tables (or, when
 * `static_header` is given, the trained tables whose pre-rendered,
 * byte-aligned header it is), then the fixed trees; the first strictly
 * smaller body wins — and render only the winner. */
static int64_t encode_block(
    const int64_t *tokens, int64_t ntok, int64_t n,
    const uint8_t *static_ll_lengths, const uint8_t *static_d_lengths,
    const uint8_t *static_header, int64_t static_header_len,
    uint8_t *out, int64_t out_cap, int64_t *mode_out)
{
    int64_t ll_freq[NUM_LITLEN], d_freq[NUM_DIST];
    int64_t extra_bits = count_symbols(tokens, ntok, ll_freq, d_freq);
    if (extra_bits < 0)
        return -2;

    uint8_t ll_lengths[NUM_LITLEN], d_lengths[NUM_DIST];
    uint8_t header[TABLE_HEADER_MAX_BYTES];
    BitWr hw = {header, sizeof header, 0, 0, 0};
    int64_t best = n, mode = MODE_STORED, bits;
    if (static_header) {
        bits = symbol_bits(
            ll_freq, d_freq, extra_bits, static_ll_lengths, static_d_lengths);
        if (bits >= 0 && static_header_len + (bits + 7) / 8 < best) {
            mode = MODE_HUFFMAN_STATIC;
            best = static_header_len + (bits + 7) / 8;
        }
    } else {
        if (huffman_code_lengths(ll_freq, NUM_LITLEN, MAX_CODE_LEN, ll_lengths)
            || huffman_code_lengths(d_freq, NUM_DIST, MAX_CODE_LEN, d_lengths)
            || write_table_header(&hw, ll_lengths, d_lengths))
            return -3;
        bits = 8 * hw.len + hw.nbits
            + symbol_bits(ll_freq, d_freq, extra_bits, ll_lengths, d_lengths);
        if ((bits + 7) / 8 < best) {
            mode = MODE_HUFFMAN;
            best = (bits + 7) / 8;
        }
    }
    uint8_t fixed_ll[NUM_LITLEN], fixed_d[NUM_DIST];
    fixed_lengths(fixed_ll, fixed_d);
    bits = symbol_bits(ll_freq, d_freq, extra_bits, fixed_ll, fixed_d);
    if ((bits + 7) / 8 < best)
        mode = MODE_HUFFMAN_FIXED;

    *mode_out = mode;
    BitWr w = {out, out_cap, 0, 0, 0};
    const uint8_t *ll = fixed_ll, *d = fixed_d;
    if (mode == MODE_STORED)
        return 0; /* the body is the page itself */
    if (mode == MODE_HUFFMAN) {
        /* Continue the header's bit stream, partial byte included. */
        if (hw.len > out_cap)
            return -4;
        memcpy(out, header, (size_t)hw.len);
        w.len = hw.len, w.acc = hw.acc, w.nbits = hw.nbits;
        ll = ll_lengths, d = d_lengths;
    } else if (mode == MODE_HUFFMAN_STATIC) {
        if (static_header_len > out_cap)
            return -4;
        memcpy(out, static_header, (size_t)static_header_len);
        w.len = static_header_len;
        ll = static_ll_lengths, d = static_d_lengths;
    }
    return write_symbols(&w, tokens, ntok, ll, d) ? -4 : w.len;
}

/* DeflateCodec.compress minus the blob header: tokenise `data` in
 * `scratch` (a tokenize_scratch_bytes(n) block), elect the block mode,
 * render the body into `out`.  Stores the mode in *mode_out and
 * returns the body length (0 for stored), negative when `out_cap` is
 * too small for the body (a body is only ever chosen when it is
 * shorter than `n`). */
int64_t deflate_compress(
    const uint8_t *data, int64_t n,
    int64_t window_size, int64_t min_match, int64_t max_match,
    int64_t max_chain, int64_t lazy,
    const uint8_t *static_ll_lengths, const uint8_t *static_d_lengths,
    const uint8_t *static_header, int64_t static_header_len,
    uint8_t *scratch, uint8_t *out, int64_t out_cap, int64_t *mode_out)
{
    *mode_out = MODE_STORED;
    if (n <= 0)
        return 0;
    int64_t *tokens = scratch_tokens(scratch);
    int64_t ntok = lz77_tokenize(
        data, n, window_size, min_match, max_match, max_chain, lazy,
        scratch, tokens);
    return encode_block(
        tokens, ntok, n, static_ll_lengths, static_d_lengths,
        static_header, static_header_len, out, out_cap, mode_out);
}

/* deflate._read_table_header: the inverse of write_table_header. */
static int read_table_header(BitRd *br, uint8_t *ll_lengths, uint8_t *d_lengths)
{
    enum { TOTAL = NUM_LITLEN + NUM_DIST };
    uint8_t cl_lengths[NUM_CODELEN];
    uint32_t v;
    for (int i = 0; i < NUM_CODELEN; i++) {
        if (br_read(br, 3, &v))
            return -1;
        cl_lengths[i] = (uint8_t)v;
    }
    uint32_t cl_table[1 << 7];
    int cl_width = build_decoder(cl_lengths, NUM_CODELEN, cl_table);
    if (cl_width <= 0)
        return -1;
    int64_t rle_count;
    if (br_varint(br, &rle_count))
        return -1;
    uint8_t combined[TOTAL];
    int filled = 0;
    for (int64_t r = 0; r < rle_count; r++) {
        int sym = br_decode(br, cl_table, cl_width);
        if (sym < 0)
            return -1;
        int rep = 1, value = sym;
        if (sym == 16) {
            if (!filled || br_read(br, 2, &v))
                return -1;
            rep = 3 + (int)v, value = combined[filled - 1];
        } else if (sym == 17) {
            if (br_read(br, 3, &v))
                return -1;
            rep = 3 + (int)v, value = 0;
        } else if (sym == 18) {
            if (br_read(br, 7, &v))
                return -1;
            rep = 11 + (int)v, value = 0;
        }
        if (filled + rep > TOTAL)
            return -1;
        memset(combined + filled, value, (size_t)rep);
        filled += rep;
    }
    if (filled != TOTAL)
        return -1;
    memcpy(ll_lengths, combined, NUM_LITLEN);
    memcpy(d_lengths, combined + NUM_LITLEN, NUM_DIST);
    return 0;
}

/* The symbol stream up to end-of-block, through decode tables built
 * into `ll_table` / `d_table` (1 << MAX_CODE_LEN entries each). */
static int64_t read_symbols(
    BitRd *br, const uint8_t *ll_lengths, const uint8_t *d_lengths,
    uint32_t *ll_table, uint32_t *d_table, uint8_t *out, int64_t out_cap)
{
    int ll_width = build_decoder(ll_lengths, NUM_LITLEN, ll_table);
    int d_width = build_decoder(d_lengths, NUM_DIST, d_table);
    if (ll_width <= 0 || d_width < 0)
        return -3;
    int64_t out_len = 0;
    uint32_t v;
    for (;;) {
        int sym = br_decode(br, ll_table, ll_width);
        if (sym < 0)
            return -4;
        if (sym < 256) {
            if (out_len >= out_cap)
                return -5;
            out[out_len++] = (uint8_t)sym;
            continue;
        }
        if (sym == EOB)
            return out_len;
        if (br_read(br, LEN_EXTRA[sym - 257], &v))
            return -4;
        int64_t length = LEN_BASE[sym - 257] + (int64_t)v;
        int dsym = d_width ? br_decode(br, d_table, d_width) : -1;
        if (dsym < 0 || br_read(br, DIST_EXTRA[dsym], &v))
            return -4;
        int64_t distance = DIST_BASE[dsym] + (int64_t)v;
        if (distance > out_len)
            return -6;
        if (out_len + length > out_cap)
            return -5;
        copy_match(out + out_len, distance, length, out_cap - out_len);
        out_len += length;
    }
}

/* Decode the Huffman block of one blob whose payload starts at byte
 * `start`: mode 1 opens with the table header, mode 2 uses the fixed
 * trees, mode 3 is version(8) | table id(32) | table header | pad —
 * self-describing, so no trained table is consulted.  Returns the
 * number of bytes written to `out`, or a negative code on any anomaly:
 * the caller re-runs the Python decoder, which raises what it always
 * raised. */
int64_t deflate_decompress(
    const uint8_t *data, int64_t data_len, int64_t start, int64_t mode,
    uint8_t *out, int64_t out_cap)
{
    if (start < 0 || start > data_len)
        return -1;
    BitRd br = {data, data_len, start, 0, 0};
    uint8_t ll_lengths[NUM_LITLEN], d_lengths[NUM_DIST];
    uint32_t v;
    if (mode == MODE_HUFFMAN_FIXED) {
        fixed_lengths(ll_lengths, d_lengths);
    } else if (mode == MODE_HUFFMAN) {
        if (read_table_header(&br, ll_lengths, d_lengths))
            return -2;
    } else if (mode == MODE_HUFFMAN_STATIC) {
        if (br_read(&br, 8, &v) || v != STATIC_FORMAT_VERSION
            || br_read(&br, 16, &v) || br_read(&br, 16, &v)
            || read_table_header(&br, ll_lengths, d_lengths))
            return -2;
        int drop = br.nbits % 8; /* BitReader.align_to_byte */
        br.acc >>= drop;
        br.nbits -= drop;
    } else {
        return -1;
    }
    uint32_t *tables = malloc((2 * sizeof(uint32_t)) << MAX_CODE_LEN);
    if (!tables)
        return -1;
    int64_t decoded = read_symbols(
        &br, ll_lengths, d_lengths, tables, tables + (1 << MAX_CODE_LEN),
        out, out_cap);
    free(tables);
    return decoded;
}

/* ------------------------------------------------------------------ */
/* lzfast (LZO-style byte-aligned) codec                               */
/* ------------------------------------------------------------------ */

#define LZF_HASH_BITS 13
#define LZF_HASH_SIZE (1 << LZF_HASH_BITS)
#define LZF_HASH_MASK (LZF_HASH_SIZE - 1)
#define LZF_MIN_MATCH 4
#define LZF_MAX_MATCH (0x7F + LZF_MIN_MATCH)
#define LZF_MAX_LITERAL_RUN 0x80

static inline uint32_t lzf_hash(const uint8_t *p)
{
    uint32_t key = (uint32_t)p[0] | ((uint32_t)p[1] << 8)
                 | ((uint32_t)p[2] << 16) | ((uint32_t)p[3] << 24);
    return ((key * HASH_MULT) >> 16) & LZF_HASH_MASK;
}

/* Emit the token body (no header); returns body length or -1 if it
 * would overflow out_cap.  Mirrors LzFastCodec.compress exactly:
 * single-probe table, 32-byte-chunk match extension, every in-match
 * position inserted into the table. */
int64_t lzfast_compress(
    const uint8_t *data, int64_t n, int64_t max_distance,
    int32_t *table, uint8_t *out, int64_t out_cap)
{
    memset(table, 0xFF, LZF_HASH_SIZE * sizeof(int32_t));
    int64_t olen = 0;
    int64_t literal_start = 0;
    int64_t pos = 0;
    while (pos + LZF_MIN_MATCH <= n) {
        uint32_t h = lzf_hash(data + pos);
        int64_t candidate = table[h];
        table[h] = (int32_t)pos;
        if (candidate >= 0 && pos - candidate <= max_distance
            && memcmp(data + candidate, data + pos, LZF_MIN_MATCH) == 0) {
            int64_t length = LZF_MIN_MATCH;
            int64_t max_len =
                n - pos > LZF_MAX_MATCH ? LZF_MAX_MATCH : n - pos;
            while (length + 32 <= max_len
                   && memcmp(data + candidate + length,
                             data + pos + length, 32) == 0)
                length += 32;
            while (length < max_len
                   && data[candidate + length] == data[pos + length])
                length += 1;
            /* flush pending literals */
            int64_t start = literal_start;
            while (start < pos) {
                int64_t run = pos - start;
                if (run > LZF_MAX_LITERAL_RUN)
                    run = LZF_MAX_LITERAL_RUN;
                if (olen + 1 + run > out_cap)
                    return -1;
                out[olen++] = (uint8_t)(run - 1);
                memcpy(out + olen, data + start, (size_t)run);
                olen += run;
                start += run;
            }
            int64_t distance = pos - candidate;
            if (olen + 3 > out_cap)
                return -1;
            out[olen++] = (uint8_t)(0x80 | (length - LZF_MIN_MATCH));
            out[olen++] = (uint8_t)(distance & 0xFF);
            out[olen++] = (uint8_t)(distance >> 8);
            int64_t insert_end = pos + length;
            if (insert_end > n - LZF_MIN_MATCH + 1)
                insert_end = n - LZF_MIN_MATCH + 1;
            for (int64_t i = pos + 1; i < insert_end; i++)
                table[lzf_hash(data + i)] = (int32_t)i;
            pos += length;
            literal_start = pos;
        } else {
            pos += 1;
        }
    }
    /* flush tail literals */
    {
        int64_t start = literal_start;
        while (start < n) {
            int64_t run = n - start;
            if (run > LZF_MAX_LITERAL_RUN)
                run = LZF_MAX_LITERAL_RUN;
            if (olen + 1 + run > out_cap)
                return -1;
            out[olen++] = (uint8_t)(run - 1);
            memcpy(out + olen, data + start, (size_t)run);
            olen += run;
            start += run;
        }
    }
    return olen;
}

/* Decode a compressed-mode token body starting at blob[start]; returns
 * decoded length, or -1 on any malformed stream (caller re-runs the
 * Python decoder for exact error semantics). */
int64_t lzfast_decompress(
    const uint8_t *blob, int64_t blob_len, int64_t start,
    uint8_t *out, int64_t out_cap)
{
    if (start < 0)
        return -1;
    int64_t pos = start;
    int64_t olen = 0;
    while (pos < blob_len) {
        uint8_t control = blob[pos++];
        if (control < 0x80) {
            int64_t run = (int64_t)control + 1;
            if (pos + run > blob_len || olen + run > out_cap)
                return -1;
            memcpy(out + olen, blob + pos, (size_t)run);
            olen += run;
            pos += run;
        } else {
            if (pos + 2 > blob_len)
                return -1;
            int64_t length = (control & 0x7F) + LZF_MIN_MATCH;
            int64_t distance =
                (int64_t)blob[pos] | ((int64_t)blob[pos + 1] << 8);
            pos += 2;
            if (distance == 0 || distance > olen || olen + length > out_cap)
                return -1;
            copy_match(out + olen, distance, length, out_cap - olen);
            olen += length;
        }
    }
    return olen;
}

/* ------------------------------------------------------------------ */
/* zstd-like                                                           */
/* ------------------------------------------------------------------ */

#define ZSTD_MODE_STORED 0
#define ZSTD_MODE_COMPRESSED 1

/* The compressed-mode payload for one packed token array: literal
 * count, 256 x 4-bit literal code lengths and the Huffman-coded
 * literals (both only when there are literals), sequence count, then
 * (literal_run, match_length[, offset]) bit-varints — a trailing
 * literal run is a sequence with match_length 0 — padded to a byte.
 * Returns the body length, -2 when it does not fit `out_cap`, another
 * negative code on a bad token. */
static int64_t zstdlike_encode_body(
    const int64_t *tokens, int64_t ntok, uint8_t *out, int64_t out_cap)
{
    int64_t freq[256] = {0};
    int64_t nlit = 0, nseq = 0;
    for (int64_t t = 0; t < ntok; t++) {
        int64_t tok = tokens[t];
        if (tok < 0)
            return -1;
        if (tok < 256) {
            freq[tok]++;
            nlit++;
        } else {
            nseq++;
        }
    }
    if (ntok && tokens[ntok - 1] < 256)
        nseq++; /* trailing literal run */

    BitWr w = {out, out_cap, 0, 0, 0};
    if (bw_varint(&w, (uint64_t)nlit))
        return -2;
    if (nlit) {
        uint8_t lengths[256];
        if (huffman_code_lengths(freq, 256, MAX_CODE_LEN, lengths))
            return -3;
        uint16_t codes[256];
        canonical_codes_lsb(lengths, 256, codes);
        for (int s = 0; s < 256; s++)
            if (bw_write(&w, lengths[s], 4))
                return -2;
        for (int64_t t = 0; t < ntok; t++) {
            int64_t tok = tokens[t];
            if (tok < 256 && bw_write(&w, codes[tok], lengths[tok]))
                return -2;
        }
    }
    if (bw_varint(&w, (uint64_t)nseq))
        return -2;
    int64_t run = 0;
    for (int64_t t = 0; t < ntok; t++) {
        int64_t tok = tokens[t];
        if (tok < 256) {
            run++;
            continue;
        }
        int64_t match_len = tok & PACKED_LENGTH_MASK;
        if (bw_varint(&w, (uint64_t)run)
            || bw_varint(&w, (uint64_t)match_len)
            || (match_len
                && bw_varint(&w, (uint64_t)(tok >> PACKED_LENGTH_BITS))))
            return -2;
        run = 0;
    }
    if (run && (bw_varint(&w, (uint64_t)run) || bw_varint(&w, 0)))
        return -2;
    if (bw_finish(&w))
        return -2;
    return w.len;
}

/* ZstdLikeCodec.compress minus the blob header: tokenise `data` in
 * `scratch` (a tokenize_scratch_bytes(n) block), encode the payload
 * into `out` (at least `n` bytes) and keep it only if it saves more
 * than three bytes.  Stores the mode in *mode_out and returns the
 * payload length (0 for stored: the payload is `data` itself),
 * negative on failure. */
int64_t zstdlike_compress(
    const uint8_t *data, int64_t n,
    int64_t window_size, int64_t min_match, int64_t max_match,
    int64_t max_chain, int64_t lazy,
    uint8_t *scratch, uint8_t *out, int64_t out_cap, int64_t *mode_out)
{
    *mode_out = ZSTD_MODE_STORED;
    if (n <= 0)
        return 0;
    if (out_cap < n)
        return -1;
    int64_t *tokens = scratch_tokens(scratch);
    int64_t ntok = lz77_tokenize(
        data, n, window_size, min_match, max_match, max_chain, lazy,
        scratch, tokens);
    int64_t body_len = zstdlike_encode_body(tokens, ntok, out, out_cap);
    if (body_len == -2 || (body_len >= 0 && body_len + 3 >= n))
        return 0; /* out_cap >= n: a body that overflows it saves nothing */
    if (body_len >= 0)
        *mode_out = ZSTD_MODE_COMPRESSED;
    return body_len;
}

/* Decode a compressed-mode body starting at byte offset `start` (the
 * header is a whole number of bytes).  `table` is 1<<15 uint32 scratch
 * and `literals` out_cap bytes of scratch.  Every check of the Python
 * decoder is kept; a literal count above out_cap is also refused (no
 * encoder emits one, Python decides what it means).  Returns the
 * decoded length, or a negative code on any anomaly — the caller
 * re-runs the Python decoder, which raises what it always raised. */
int64_t zstdlike_decode_body(
    const uint8_t *data, int64_t data_len, int64_t start,
    uint32_t *table, uint8_t *literals, uint8_t *out, int64_t out_cap)
{
    if (start < 0 || start > data_len)
        return -1;
    BitRd br = {data, data_len, start, 0, 0};
    int64_t lit_count;
    if (br_varint(&br, &lit_count))
        return -1;
    if (lit_count > out_cap)
        return -2;
    if (lit_count) {
        uint8_t lengths[256];
        uint32_t v;
        for (int s = 0; s < 256; s++) {
            if (br_read(&br, 4, &v))
                return -3;
            lengths[s] = (uint8_t)v;
        }
        int width = build_decoder(lengths, 256, table);
        if (width <= 0)
            return -4;
        for (int64_t i = 0; i < lit_count; i++) {
            int sym = br_decode(&br, table, width);
            if (sym < 0)
                return -5;
            literals[i] = (uint8_t)sym;
        }
    }
    int64_t seq_count;
    if (br_varint(&br, &seq_count))
        return -6;
    int64_t out_len = 0, lit_pos = 0;
    for (int64_t q = 0; q < seq_count; q++) {
        int64_t lit_run, match_len;
        if (br_varint(&br, &lit_run) || br_varint(&br, &match_len))
            return -6;
        if (lit_pos + lit_run > lit_count)
            return -7;
        if (out_len + lit_run > out_cap)
            return -8;
        /* A short run moves as one 16-byte block when both buffers
         * have the room; the next append overwrites the excess. */
        if (lit_run <= 16 && lit_pos + 16 <= out_cap
            && out_len + 16 <= out_cap)
            memcpy(out + out_len, literals + lit_pos, 16);
        else
            memcpy(out + out_len, literals + lit_pos, (size_t)lit_run);
        out_len += lit_run;
        lit_pos += lit_run;
        if (!match_len)
            continue;
        int64_t offset;
        if (br_varint(&br, &offset))
            return -6;
        if (offset == 0 || offset > out_len || match_len < 3)
            return -9;
        if (out_len + match_len > out_cap)
            return -8;
        copy_match(out + out_len, offset, match_len, out_cap - out_len);
        out_len += match_len;
    }
    return out_len;
}