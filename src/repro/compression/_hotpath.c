/* Native hot-path kernels for the LZ77/Deflate/zstd-like codec stack.
 *
 * Compiled on demand by repro.compression._native with the host C
 * compiler and loaded through ctypes; every entry point is a direct,
 * bit-exact translation of the corresponding pure-Python routine (the
 * scalar tokenizer in lz77.py, the code-length builder in huffman.py,
 * the symbol encoder/decoder in deflate.py, the body encoder/decoder
 * in zstd_like.py).  The Python side treats any failure — no compiler,
 * bad load, any negative return — as "fall back to the Python engine",
 * so this file can assume nothing about availability and must never be
 * required for correctness.
 *
 * Exactness contract: token selection must match
 * Lz77Matcher._tokenize_packed_scalar decision-for-decision, Huffman
 * code lengths must match code_lengths_from_frequencies symbol for
 * symbol, and the encoders must emit the same bit stream as their
 * BitWriter-based Python paths (LSB-first).  The decoders only have to
 * be exact on *valid* streams: on any malformed input they return a
 * negative error and the caller re-runs the Python decoder so error
 * semantics (exception type and message) stay Python's.
 */

#include <stdint.h>
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

/* ------------------------------------------------------------------ */
/* LZ77 tokenizer                                                      */
/* ------------------------------------------------------------------ */

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
    int64_t best_len = min_match - 1;
    int64_t best_dist = 0;
    int64_t max_len = (n - pos > max_match) ? max_match : n - pos;
    int64_t budget = max_chain;
    uint8_t target = data[pos + best_len];
    const uint8_t *b = data + pos;
    while (candidate >= floor && budget > 0) {
        budget--;
        /* Quick reject: a candidate mismatching at offset best_len can
         * never produce a strictly longer match. */
        if (data[candidate + best_len] != target) {
            candidate = prev[candidate];
            continue;
        }
        const uint8_t *a = data + candidate;
        int64_t length = 0;
        /* 32-byte chunk extension; length+32 <= max_len <= n-pos keeps
         * both sides in bounds (candidate < pos). */
        while (length + 32 <= max_len && memcmp(a + length, b + length, 32) == 0)
            length += 32;
        while (length < max_len && a[length] == b[length])
            length++;
        if (length > best_len) {
            best_len = length;
            best_dist = pos - candidate;
            if (length >= max_len)
                break;
            target = data[pos + best_len];
        }
        candidate = prev[candidate];
    }
    if (best_len >= min_match)
        return (best_dist << PACKED_LENGTH_BITS) | best_len;
    return 0;
}

/* Tokenize one buffer; returns the number of packed tokens written to
 * `out` (caller sizes it to n).  `head` is 1<<15 int32 scratch, `prev`
 * is n int32 scratch. */
int64_t lz77_tokenize(
    const uint8_t *data, int64_t n,
    int64_t window_size, int64_t min_match, int64_t max_match,
    int64_t max_chain, int64_t lazy,
    int32_t *head, int32_t *prev, int64_t *out)
{
    int64_t ntok = 0;
    if (n <= 0)
        return 0;
    memset(prev, 0xFF, (size_t)n * sizeof(int32_t));
    if (n >= 3) {
        memset(head, 0xFF, HASH_SIZE * sizeof(int32_t));
        uint32_t key = (uint32_t)data[0] | ((uint32_t)data[1] << 8);
        for (int64_t i = 0; i + 2 < n; i++) {
            key |= (uint32_t)data[i + 2] << 16;
            uint32_t h = ((key * HASH_MULT) >> 16) & HASH_MASK;
            prev[i] = head[h];
            head[h] = (int32_t)i;
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
/* Bit reader (LSB-first, matches repro.compression.bitio.BitReader)   */
/* ------------------------------------------------------------------ */

typedef struct {
    const uint8_t *d;
    int64_t len;
    int64_t pos;
    uint64_t acc;
    int nbits;
} BitRd;

static inline void br_refill(BitRd *r)
{
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
 * six groups (the Python reader raises once shift passes 35). */
static inline int br_varint(BitRd *r, int64_t *value)
{
    int64_t v = 0;
    int shift = 0;
    for (;;) {
        uint32_t more, chunk;
        if (br_read(r, 1, &more) || br_read(r, 7, &chunk))
            return -1;
        v |= (int64_t)chunk << shift;
        if (!more)
            break;
        shift += 7;
        if (shift > 35)
            return -1;
    }
    *value = v;
    return 0;
}

/* ------------------------------------------------------------------ */
/* Canonical Huffman decode table (full-width, LSB-indexed)            */
/* ------------------------------------------------------------------ */

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
        uint16_t rev = 0;
        for (int bit = 0; bit < l; bit++)
            rev |= (uint16_t)(((c >> bit) & 1) << (l - 1 - bit));
        codes[s] = rev;
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

/* ------------------------------------------------------------------ */
/* Deflate block decode                                                */
/* ------------------------------------------------------------------ */

/* Decode one Huffman block starting at byte offset `start` of `data`.
 *
 * have_tables != 0: code lengths arrive in ll_lengths_in/d_lengths_in
 * (the fixed-tree mode, or a static-table body whose header the caller
 * already skipped).  Otherwise the dynamic header (19 x 3-bit
 * code-length lengths, bit-level varint RLE count, RLE'd lengths) is
 * parsed from the stream.
 *
 * Returns the number of bytes written to `out`, or a negative error
 * code on any malformed input (caller falls back to Python). */
int64_t deflate_decode_block(
    const uint8_t *data, int64_t data_len, int64_t start,
    int64_t have_tables,
    const uint8_t *ll_lengths_in, const uint8_t *d_lengths_in,
    const int32_t *len_base, const uint8_t *len_extra,
    const int32_t *dist_base, const uint8_t *dist_extra,
    uint32_t *ll_table, uint32_t *d_table,
    uint8_t *out, int64_t out_cap)
{
    BitRd br = {data, data_len, start, 0, 0};
    uint8_t ll_lengths[NUM_LITLEN];
    uint8_t d_lengths[NUM_DIST];

    if (have_tables) {
        memcpy(ll_lengths, ll_lengths_in, NUM_LITLEN);
        memcpy(d_lengths, d_lengths_in, NUM_DIST);
    } else {
        uint8_t cl_lengths[NUM_CODELEN];
        uint32_t v;
        for (int i = 0; i < NUM_CODELEN; i++) {
            if (br_read(&br, 3, &v))
                return -1;
            cl_lengths[i] = (uint8_t)v;
        }
        uint32_t cl_table[1 << 7];
        int cl_width = build_decoder(cl_lengths, NUM_CODELEN, cl_table);
        if (cl_width <= 0)
            return -2;
        uint32_t cl_mask = (1u << cl_width) - 1;

        int64_t rle_count;
        if (br_varint(&br, &rle_count))
            return -3;

        const int total = NUM_LITLEN + NUM_DIST;
        uint8_t combined[NUM_LITLEN + NUM_DIST];
        int filled = 0;
        for (int64_t r = 0; r < rle_count; r++) {
            if (br.nbits < cl_width)
                br_refill(&br);
            uint32_t entry = cl_table[br.acc & cl_mask];
            if (!entry)
                return -4;
            int clen = (int)(entry >> 16);
            if (clen > br.nbits)
                return -4;
            br.acc >>= clen;
            br.nbits -= clen;
            int sym = (int)(entry & 0xFFFF);
            if (sym <= 15) {
                if (filled >= total)
                    return -5;
                combined[filled++] = (uint8_t)sym;
            } else if (sym == 16) {
                if (!filled)
                    return -5;
                if (br_read(&br, 2, &v))
                    return -5;
                int rep = 3 + (int)v;
                if (filled + rep > total)
                    return -5;
                memset(combined + filled, combined[filled - 1], rep);
                filled += rep;
            } else if (sym == 17) {
                if (br_read(&br, 3, &v))
                    return -5;
                int rep = 3 + (int)v;
                if (filled + rep > total)
                    return -5;
                memset(combined + filled, 0, rep);
                filled += rep;
            } else {
                if (br_read(&br, 7, &v))
                    return -5;
                int rep = 11 + (int)v;
                if (filled + rep > total)
                    return -5;
                memset(combined + filled, 0, rep);
                filled += rep;
            }
        }
        if (filled != total)
            return -5;
        memcpy(ll_lengths, combined, NUM_LITLEN);
        memcpy(d_lengths, combined + NUM_LITLEN, NUM_DIST);
    }

    int ll_width = build_decoder(ll_lengths, NUM_LITLEN, ll_table);
    if (ll_width <= 0)
        return -6;
    int d_width = build_decoder(d_lengths, NUM_DIST, d_table);
    if (d_width < 0)
        return -6;
    uint32_t ll_mask = (1u << ll_width) - 1;
    uint32_t d_mask = d_width ? (1u << d_width) - 1 : 0;

    int64_t out_len = 0;
    for (;;) {
        /* One refill covers a whole token: 15 (litlen) + 5 (len extra)
         * + 15 (dist code) + 13 (dist extra) = 48 bits max. */
        if (br.nbits < 48)
            br_refill(&br);
        uint32_t entry = ll_table[br.acc & ll_mask];
        if (!entry)
            return -7;
        int clen = (int)(entry >> 16);
        if (clen > br.nbits)
            return -7;
        br.acc >>= clen;
        br.nbits -= clen;
        int sym = (int)(entry & 0xFFFF);
        if (sym < 256) {
            if (out_len >= out_cap)
                return -8;
            out[out_len++] = (uint8_t)sym;
            continue;
        }
        if (sym == EOB)
            break;
        int eb = len_extra[sym - 257];
        int64_t length = len_base[sym - 257];
        if (eb) {
            if (eb > br.nbits)
                return -9;
            length += (int64_t)(br.acc & ((1u << eb) - 1));
            br.acc >>= eb;
            br.nbits -= eb;
        }
        if (!d_width)
            return -10;
        uint32_t dentry = d_table[br.acc & d_mask];
        if (!dentry)
            return -10;
        int dlen = (int)(dentry >> 16);
        if (dlen > br.nbits)
            return -10;
        br.acc >>= dlen;
        br.nbits -= dlen;
        int dsym = (int)(dentry & 0xFFFF);
        int deb = dist_extra[dsym];
        int64_t distance = dist_base[dsym];
        if (deb) {
            if (deb > br.nbits)
                return -11;
            distance += (int64_t)(br.acc & ((1u << deb) - 1));
            br.acc >>= deb;
            br.nbits -= deb;
        }
        int64_t src = out_len - distance;
        if (src < 0)
            return -12;
        if (out_len + length > out_cap)
            return -8;
        /* Byte-forward copy replicates periodic seeds on overlap, the
         * same result extend_match produces by doubling. */
        for (int64_t i = 0; i < length; i++)
            out[out_len + i] = out[src + i];
        out_len += length;
    }
    return out_len;
}

/* ------------------------------------------------------------------ */
/* Deflate symbol encode                                               */
/* ------------------------------------------------------------------ */

/* Emit the Huffman-coded symbol stream (tokens + end-of-block) for one
 * packed token array, continuing from a partial bit-writer state
 * (*acc_io / *nbits_io, nbits < 8).  Writes whole bytes to `out`,
 * leaves the final partial byte in *acc_io / *nbits_io, and returns
 * the byte count (negative on error).  Bit-for-bit identical to
 * DeflateCodec's BitWriter path: LSB-first, one fused write per token.
 *
 * Mapping tables (all precomputed on the Python side from the RFC 1951
 * code tables): len_sym/len_extra_val/len_ebits are indexed by match
 * length 0..258; dist_lo_sym by distance 1..256; dist_high_sym by
 * (distance-1)>>7; dist_sym_base/dist_sym_ebits by distance symbol. */
int64_t deflate_encode_symbols(
    const int64_t *tokens, int64_t ntok,
    const uint16_t *ll_codes, const uint8_t *ll_lens,
    const uint16_t *d_codes, const uint8_t *d_lens,
    const uint16_t *len_sym, const uint16_t *len_extra_val,
    const uint8_t *len_ebits,
    const uint8_t *dist_lo_sym, const uint8_t *dist_high_sym,
    const int32_t *dist_sym_base, const uint8_t *dist_sym_ebits,
    uint64_t *acc_io, int64_t *nbits_io,
    uint8_t *out, int64_t out_cap)
{
    uint64_t acc = *acc_io;
    int nbits = (int)*nbits_io;
    int64_t olen = 0;
    for (int64_t t = 0; t <= ntok; t++) {
        uint64_t value;
        int vb;
        if (t == ntok) {
            /* End-of-block terminator, written through the same path. */
            vb = ll_lens[EOB];
            if (!vb)
                return -1;
            value = ll_codes[EOB];
        } else {
            int64_t tok = tokens[t];
            if (tok < 256) {
                vb = ll_lens[tok];
                if (!vb)
                    return -1;
                value = ll_codes[tok];
            } else {
                int64_t length = tok & PACKED_LENGTH_MASK;
                int64_t distance = tok >> PACKED_LENGTH_BITS;
                if (length > 258 || distance < 1 || distance > (1 << 15))
                    return -2;
                int ls = len_sym[length];
                vb = ll_lens[ls];
                if (!vb)
                    return -1;
                value = ll_codes[ls];
                int leb = len_ebits[length];
                if (leb) {
                    value |= (uint64_t)len_extra_val[length] << vb;
                    vb += leb;
                }
                int ds = (distance <= 256)
                    ? dist_lo_sym[distance]
                    : dist_high_sym[(distance - 1) >> 7];
                int dl = d_lens[ds];
                if (!dl)
                    return -1;
                value |= (uint64_t)d_codes[ds] << vb;
                vb += dl;
                int deb = dist_sym_ebits[ds];
                if (deb) {
                    value |= (uint64_t)(distance - dist_sym_base[ds]) << vb;
                    vb += deb;
                }
            }
        }
        acc |= value << nbits;
        nbits += vb;
        while (nbits >= 8) {
            if (olen >= out_cap)
                return -3;
            out[olen++] = (uint8_t)(acc & 0xFF);
            acc >>= 8;
            nbits -= 8;
        }
    }
    *acc_io = acc;
    *nbits_io = nbits;
    return olen;
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
            const uint8_t *src = out + olen - distance;
            uint8_t *dst = out + olen;
            if (distance >= length) {
                memcpy(dst, src, (size_t)length);
            } else {
                for (int64_t i = 0; i < length; i++)
                    dst[i] = src[i];
            }
            olen += length;
        }
    }
    return olen;
}

/* ------------------------------------------------------------------ */
/* Huffman code lengths                                                */
/* ------------------------------------------------------------------ */

/* Largest alphabet the kernel takes (deflate's litlen is 286) and the
 * largest single frequency, so summed weights stay far inside int64.
 * Anything beyond either is left to Python's unbounded integers. */
#define HUFF_MAX_SYMBOLS 512
#define HUFF_MAX_FREQ ((int64_t)1 << 48)

/* heapq over (weight, insertion id) tuples: ids are unique, so the
 * order is total and any correct binary heap pops the same sequence. */
typedef struct {
    int64_t weight;
    int32_t id;
} HeapItem;

static inline int heap_less(HeapItem a, HeapItem b)
{
    return a.weight < b.weight || (a.weight == b.weight && a.id < b.id);
}

static void heap_push(HeapItem *heap, int *size, HeapItem item)
{
    int i = (*size)++;
    while (i > 0) {
        int parent = (i - 1) >> 1;
        if (!heap_less(item, heap[parent]))
            break;
        heap[i] = heap[parent];
        i = parent;
    }
    heap[i] = item;
}

static HeapItem heap_pop(HeapItem *heap, int *size)
{
    HeapItem top = heap[0];
    HeapItem last = heap[--(*size)];
    int i = 0;
    for (;;) {
        int child = 2 * i + 1;
        if (child >= *size)
            break;
        if (child + 1 < *size && heap_less(heap[child + 1], heap[child]))
            child++;
        if (!heap_less(heap[child], last))
            break;
        heap[i] = heap[child];
        i = child;
    }
    heap[i] = last;
    return top;
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
     * exactly the tiebreak counter of the Python heap. */
    HeapItem heap[HUFF_MAX_SYMBOLS];
    int32_t parent[2 * HUFF_MAX_SYMBOLS];
    int32_t depth[2 * HUFF_MAX_SYMBOLS];
    int size = 0;
    for (int i = 0; i < m; i++)
        heap_push(heap, &size, (HeapItem){freq[used[i]], i});
    int next = m;
    while (size > 1) {
        HeapItem a = heap_pop(heap, &size);
        HeapItem b = heap_pop(heap, &size);
        parent[a.id] = parent[b.id] = next;
        heap_push(heap, &size, (HeapItem){a.weight + b.weight, next});
        next++;
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
/* zstd-like body encode                                               */
/* ------------------------------------------------------------------ */

/* Bit writer (LSB-first, matches repro.compression.bitio.BitWriter). */
typedef struct {
    uint8_t *out;
    int64_t cap;
    int64_t len;
    uint64_t acc;
    int nbits;
} BitWr;

/* nbits <= 16 per call; fewer than 8 bits are ever left pending. */
static inline int bw_write(BitWr *w, uint64_t value, int nbits)
{
    w->acc |= value << w->nbits;
    w->nbits += nbits;
    while (w->nbits >= 8) {
        if (w->len >= w->cap)
            return -1;
        w->out[w->len++] = (uint8_t)(w->acc & 0xFF);
        w->acc >>= 8;
        w->nbits -= 8;
    }
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

/* The body ZstdLikeCodec._compress_body returns for one packed token
 * array: literal count, 256 x 4-bit literal code lengths and the
 * Huffman-coded literals (both only when there are literals), sequence
 * count, then (literal_run, match_length[, offset]) bit-varints — a
 * trailing literal run is a sequence with match_length 0 — padded to a
 * byte.  Returns the body length, negative on a bad token or when
 * `out_cap` is too small. */
int64_t zstdlike_encode_body(
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
    if (w.nbits && bw_write(&w, 0, 8 - w.nbits))
        return -2;
    return w.len;
}

/* ------------------------------------------------------------------ */
/* zstd-like body decode                                               */
/* ------------------------------------------------------------------ */

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
        uint32_t mask = (1u << width) - 1;
        for (int64_t i = 0; i < lit_count; i++) {
            if (br.nbits < width)
                br_refill(&br);
            uint32_t entry = table[br.acc & mask];
            if (!entry)
                return -5;
            int clen = (int)(entry >> 16);
            if (clen > br.nbits)
                return -5;
            br.acc >>= clen;
            br.nbits -= clen;
            literals[i] = (uint8_t)(entry & 0xFF);
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
        const uint8_t *src = out + out_len - offset;
        uint8_t *dst = out + out_len;
        if (offset >= match_len) {
            memcpy(dst, src, (size_t)match_len);
        } else {
            /* Byte-forward copy replicates the periodic seed, the same
             * bytes extend_match produces by doubling. */
            for (int64_t i = 0; i < match_len; i++)
                dst[i] = src[i];
        }
        out_len += match_len;
    }
    return out_len;
}
