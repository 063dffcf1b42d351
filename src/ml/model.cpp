#include "ml/model.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "ml/math.hpp"

namespace papaya::ml {

double LanguageModel::perplexity(std::span<const Sequence> batch) const {
  return std::exp(loss(batch, {}));
}

std::size_t LanguageModel::num_predictions(std::span<const Sequence> batch) {
  std::size_t n = 0;
  for (const auto& s : batch) {
    if (s.size() >= 2) n += s.size() - 1;
  }
  return n;
}

namespace {

void init_params(std::span<float> params, util::Rng& rng) {
  for (auto& p : params) p = static_cast<float>(rng.uniform(-0.08, 0.08));
}

void check_token(std::int32_t t, std::size_t vocab) {
  if (t < 0 || static_cast<std::size_t>(t) >= vocab) {
    throw std::out_of_range("LanguageModel: token id outside vocabulary");
  }
}

// ---------------------------------------------------------------------------
// Block kernels for the MLP.
//
// MlpLm::loss runs its predictions kBlock at a time.  Two tile layouts hold
// a block's activations:
//   - lane tiles, t[f * kBlock + b]: one row per feature, the block's
//     predictions across it, so one feature of all predictions is a run of
//     SIMD lanes;
//   - row tiles, m[b * width + f]: one row per prediction.
// Every kernel keeps, for each output element, exactly the float operations
// of the per-prediction kernels in ml/math.cpp (same start value, same
// summation order, a multiply then an add); only independent elements are
// interleaved.  The per-element sums are serial chains the compiler must not
// reassociate, so the speed comes from running many chains side by side in
// GNU vector registers.
// ---------------------------------------------------------------------------
constexpr std::size_t kBlock = 16;
constexpr std::size_t kQuads = kBlock / 4;

typedef float F4 __attribute__((vector_size(4 * sizeof(float))));

inline F4 load4(const float* p) {
  F4 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline void store4(float* p, F4 v) { std::memcpy(p, &v, sizeof(v)); }

/// Per lane, `later` where m < later, else m: one step of std::max_element.
inline F4 later_if_greater(F4 m, F4 later) {
  typedef std::int32_t I4 __attribute__((vector_size(4 * sizeof(float))));
  const I4 take = m < later;
  return (F4)(((I4)later & take) | ((I4)m & ~take));
}

/// R rows of the lane tile yt = W xt, sharing each load of xt:
/// yt[k][b] = sum over c of w[k][c] * xt[c][b], from 0 in c order.
template <std::size_t R>
inline void lane_rows(const float* w, const float* xt, float* yt,
                      std::size_t cols) {
  F4 acc[R][kQuads] = {};
  for (std::size_t c = 0; c < cols; ++c) {
    for (std::size_t q = 0; q < kQuads; ++q) {
      const F4 xv = load4(xt + c * kBlock + 4 * q);
      for (std::size_t k = 0; k < R; ++k) acc[k][q] += w[k * cols + c] * xv;
    }
  }
  for (std::size_t k = 0; k < R; ++k) {
    for (std::size_t q = 0; q < kQuads; ++q) {
      store4(yt + k * kBlock + 4 * q, acc[k][q]);
    }
  }
}

/// Lane tile yt = W xt for every prediction at once: yt[r][b] = sum over c
/// of w[r][c] * xt[c][b], from 0 in c order (matvec per lane).
void matvec_lanes(const float* w, const float* xt, float* yt, std::size_t rows,
                  std::size_t cols) {
  std::size_t r = 0;
  for (; r + 2 <= rows; r += 2) {
    lane_rows<2>(w + r * cols, xt, yt + r * kBlock, cols);
  }
  if (r < rows) lane_rows<1>(w + r * cols, xt, yt + r * kBlock, cols);
}

/// Q*4 columns of one gradient row, held in registers across the block:
/// g[c] += s[b] * m[b][c] for b = 0..n-1 in order.
template <std::size_t Q>
inline void outer_columns(float* g, const float* s, const float* m,
                          std::size_t stride, std::size_t n) {
  F4 acc[Q];
  for (std::size_t q = 0; q < Q; ++q) acc[q] = load4(g + 4 * q);
  for (std::size_t b = 0; b < n; ++b) {
    const float sb = s[b];
    const float* row = m + b * stride;
    for (std::size_t q = 0; q < Q; ++q) acc[q] += sb * load4(row + 4 * q);
  }
  for (std::size_t q = 0; q < Q; ++q) store4(g + 4 * q, acc[q]);
}

/// G += A^T (x) M over the block: g[r][c] += a(b, r) * m[b][c] for
/// b = 0..n-1 in order, i.e. outer_accumulate once per prediction, where
/// a(b, r) = a[b * a_b + r * a_r] and m is a row tile of width `cols`.
void outer_accumulate_block(float* g, std::size_t rows, std::size_t cols,
                            const float* a, std::size_t a_b, std::size_t a_r,
                            const float* m, std::size_t n) {
  float s[kBlock];
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t b = 0; b < n; ++b) s[b] = a[b * a_b + r * a_r];
    float* row = g + r * cols;
    std::size_t c = 0;
    for (; c + 32 <= cols; c += 32) {
      outer_columns<8>(row + c, s, m + c, cols, n);
    }
    for (; c + 16 <= cols; c += 16) {
      outer_columns<4>(row + c, s, m + c, cols, n);
    }
    for (; c + 4 <= cols; c += 4) {
      outer_columns<1>(row + c, s, m + c, cols, n);
    }
    for (; c < cols; ++c) {
      float acc = row[c];
      for (std::size_t b = 0; b < n; ++b) acc += s[b] * m[b * cols + c];
      row[c] = acc;
    }
  }
}

/// Q*4 columns of one prediction's W^T a, held in registers across the
/// rows: y[c] = sum over r of w[r][c] * s[r], from 0 in r order.
template <std::size_t Q>
inline void transposed_columns(float* y, const float* w, std::size_t stride,
                               const float* s, std::size_t s_r,
                               std::size_t rows) {
  F4 acc[Q] = {};
  for (std::size_t r = 0; r < rows; ++r) {
    const float sr = s[r * s_r];
    const float* row = w + r * stride;
    for (std::size_t q = 0; q < Q; ++q) acc[q] += load4(row + 4 * q) * sr;
  }
  for (std::size_t q = 0; q < Q; ++q) store4(y + 4 * q, acc[q]);
}

/// Row tile Y = W^T A over the block: y[b][c] = sum over r of
/// w[r][c] * a(b, r), from 0 in r order (matvec_transposed once per
/// prediction), where a(b, r) = a[b * a_b + r * a_r].
void matvec_transposed_block(const float* w, std::size_t rows,
                             std::size_t cols, const float* a,
                             std::size_t a_b, std::size_t a_r, float* y,
                             std::size_t n) {
  for (std::size_t b = 0; b < n; ++b) {
    const float* s = a + b * a_b;
    float* out = y + b * cols;
    std::size_t c = 0;
    for (; c + 32 <= cols; c += 32) {
      transposed_columns<8>(out + c, w + c, cols, s, a_r, rows);
    }
    for (; c + 16 <= cols; c += 16) {
      transposed_columns<4>(out + c, w + c, cols, s, a_r, rows);
    }
    for (; c + 4 <= cols; c += 4) {
      transposed_columns<1>(out + c, w + c, cols, s, a_r, rows);
    }
    for (; c < cols; ++c) {
      float acc = 0.0f;
      for (std::size_t r = 0; r < rows; ++r) {
        acc += w[r * cols + c] * s[r * a_r];
      }
      out[c] = acc;
    }
  }
}

// ---------------------------------------------------------------------------
// MLP n-gram language model.
// Parameter layout (flat): E[V*De] | W1[H*(C*De)] | b1[H] | W2[V*H] | b2[V].
// ---------------------------------------------------------------------------
class MlpLm final : public LanguageModel {
 public:
  MlpLm(const LmConfig& cfg, util::Rng& rng) : cfg_(cfg) {
    offsets_.embed = 0;
    offsets_.w1 = offsets_.embed + cfg.vocab_size * cfg.embed_dim;
    offsets_.b1 = offsets_.w1 + cfg.hidden_dim * cfg.context * cfg.embed_dim;
    offsets_.w2 = offsets_.b1 + cfg.hidden_dim;
    offsets_.b2 = offsets_.w2 + cfg.vocab_size * cfg.hidden_dim;
    params_.resize(offsets_.b2 + cfg.vocab_size);
    init_params(params_, rng);
  }

  std::size_t num_params() const override { return params_.size(); }
  std::span<float> params() override { return params_; }
  std::span<const float> params() const override { return params_; }

  /// Gathers the batch's predictions in sequence order into blocks of
  /// kBlock and runs each block through forward_block / backward_block.
  double loss(std::span<const Sequence> batch,
              std::span<float> grad) const override {
    if (!grad.empty() && grad.size() != params_.size()) {
      throw std::invalid_argument("MlpLm::loss: gradient buffer size mismatch");
    }
    if (!grad.empty()) std::fill(grad.begin(), grad.end(), 0.0f);

    const std::size_t n_pred = num_predictions(batch);
    if (n_pred == 0) return 0.0;
    const float inv_n = 1.0f / static_cast<float>(n_pred);

    const std::size_t V = cfg_.vocab_size, De = cfg_.embed_dim,
                      C = cfg_.context;
    const float* embed = params_.data() + offsets_.embed;
    Block blk(cfg_);
    double total_loss = 0.0;
    std::size_t n = 0;
    const auto run = [&] {
      forward_block(blk, n, total_loss);
      if (!grad.empty()) backward_block(blk, n, inv_n, grad.data());
      n = 0;
    };

    for (const auto& seq : batch) {
      if (seq.size() < 2) continue;
      for (std::size_t t = 1; t < seq.size(); ++t) {
        const std::int32_t target = seq[t];
        check_token(target, V);
        blk.target[n] = static_cast<std::size_t>(target);
        // Context window [t-C, t), padded on the left with the first token
        // of the sequence; its embeddings make prediction n's input row.
        std::size_t* ctx = blk.ctx.data() + n * C;
        float* x = blk.x.data() + n * C * De;
        for (std::size_t j = 0; j < C; ++j) {
          const std::ptrdiff_t idx =
              static_cast<std::ptrdiff_t>(t) - static_cast<std::ptrdiff_t>(C) +
              static_cast<std::ptrdiff_t>(j);
          const std::int32_t tok =
              idx >= 0 ? seq[static_cast<std::size_t>(idx)] : seq[0];
          check_token(tok, V);
          ctx[j] = static_cast<std::size_t>(tok);
          std::memcpy(x + j * De, embed + ctx[j] * De, De * sizeof(float));
        }
        if (++n == kBlock) run();
      }
    }
    if (n > 0) run();
    return total_loss / static_cast<double>(n_pred);
  }

  std::unique_ptr<LanguageModel> clone() const override {
    return std::make_unique<MlpLm>(*this);
  }

 private:
  struct Offsets {
    std::size_t embed, w1, b1, w2, b2;
  };

  /// One block's scratch, local to a loss() call.  Lane tiles: xt, ht, lt.
  /// Row tiles: x, h, dh, dx.
  struct Block {
    explicit Block(const LmConfig& cfg)
        : ctx(kBlock * cfg.context),
          x(kBlock * cfg.context * cfg.embed_dim),
          xt(cfg.context * cfg.embed_dim * kBlock),
          ht(cfg.hidden_dim * kBlock),
          lt(cfg.vocab_size * kBlock),
          h(kBlock * cfg.hidden_dim),
          dh(kBlock * cfg.hidden_dim),
          dx(kBlock * cfg.context * cfg.embed_dim) {}
    std::size_t target[kBlock] = {};
    float sum[kBlock] = {};  // sum of exp(logit - max) per prediction
    std::vector<std::size_t> ctx;
    std::vector<float> x, xt, ht, lt, h, dh, dx;
  };

  /// Forward pass over predictions 0..n-1 of `blk`: adds each prediction's
  /// cross-entropy to `total_loss` in order and leaves lt holding
  /// exp(logit - max), per lane, for backward_block.
  void forward_block(Block& blk, std::size_t n, double& total_loss) const {
    const std::size_t V = cfg_.vocab_size, H = cfg_.hidden_dim,
                      CD = cfg_.context * cfg_.embed_dim;
    const float* b1 = params_.data() + offsets_.b1;
    const float* b2 = params_.data() + offsets_.b2;

    // Lanes n..kBlock-1 of xt stay zero and are never read back.
    std::fill(blk.xt.begin(), blk.xt.end(), 0.0f);
    for (std::size_t b = 0; b < n; ++b) {
      for (std::size_t c = 0; c < CD; ++c) {
        blk.xt[c * kBlock + b] = blk.x[b * CD + c];
      }
    }
    matvec_lanes(params_.data() + offsets_.w1, blk.xt.data(), blk.ht.data(), H,
                 CD);
    for (std::size_t i = 0; i < H; ++i) {
      for (std::size_t b = 0; b < n; ++b) {
        float& v = blk.ht[i * kBlock + b];
        v = std::tanh(v + b1[i]);
      }
    }
    matvec_lanes(params_.data() + offsets_.w2, blk.ht.data(), blk.lt.data(), V,
                 H);

    // One pass of exps serves both log_sum_exp and softmax_in_place.  The
    // max is std::max_element's (a later logit wins only if strictly
    // greater); each sum runs in vocabulary order from 0.
    F4 mx[kQuads];
    for (std::size_t v = 0; v < V; ++v) {
      float* row = blk.lt.data() + v * kBlock;
      for (std::size_t q = 0; q < kQuads; ++q) {
        const F4 l = load4(row + 4 * q) + b2[v];
        store4(row + 4 * q, l);
        mx[q] = v == 0 ? l : later_if_greater(mx[q], l);
      }
    }
    float m[kBlock], target_logit[kBlock];
    for (std::size_t q = 0; q < kQuads; ++q) store4(m + 4 * q, mx[q]);
    for (std::size_t b = 0; b < n; ++b) {
      target_logit[b] = blk.lt[blk.target[b] * kBlock + b];
    }
    F4 sum[kQuads] = {};
    for (std::size_t v = 0; v < V; ++v) {
      float* row = blk.lt.data() + v * kBlock;
      for (std::size_t b = 0; b < n; ++b) row[b] = std::exp(row[b] - m[b]);
      std::fill(row + n, row + kBlock, 0.0f);
      for (std::size_t q = 0; q < kQuads; ++q) sum[q] += load4(row + 4 * q);
    }
    for (std::size_t q = 0; q < kQuads; ++q) store4(blk.sum + 4 * q, sum[q]);
    for (std::size_t b = 0; b < n; ++b) {
      const float lse = m[b] + std::log(blk.sum[b]);
      total_loss += lse - target_logit[b];
    }
  }

  /// Backward pass over predictions 0..n-1 of `blk` (after forward_block),
  /// accumulating into `grad` prediction by prediction in sequence order.
  void backward_block(Block& blk, std::size_t n, float inv_n,
                      float* grad) const {
    const std::size_t V = cfg_.vocab_size, De = cfg_.embed_dim,
                      H = cfg_.hidden_dim, C = cfg_.context, CD = C * De;
    const float* w1 = params_.data() + offsets_.w1;
    const float* w2 = params_.data() + offsets_.w2;
    float* g_embed = grad + offsets_.embed;
    float* g_w1 = grad + offsets_.w1;
    float* g_b1 = grad + offsets_.b1;
    float* g_w2 = grad + offsets_.w2;
    float* g_b2 = grad + offsets_.b2;

    // dlogits = softmax - onehot(target), scaled by 1/n_pred, in lt.
    // Lanes n..kBlock-1 divide 0 by 0 and are never read.
    F4 sum[kQuads];
    for (std::size_t q = 0; q < kQuads; ++q) sum[q] = load4(blk.sum + 4 * q);
    for (std::size_t v = 0; v < V; ++v) {
      float* row = blk.lt.data() + v * kBlock;
      for (std::size_t q = 0; q < kQuads; ++q) {
        store4(row + 4 * q, load4(row + 4 * q) / sum[q]);
      }
    }
    for (std::size_t b = 0; b < n; ++b) {
      blk.lt[blk.target[b] * kBlock + b] -= 1.0f;
    }
    for (float& d : blk.lt) d *= inv_n;
    for (std::size_t b = 0; b < n; ++b) {
      for (std::size_t i = 0; i < H; ++i) {
        blk.h[b * H + i] = blk.ht[i * kBlock + b];
      }
    }

    outer_accumulate_block(g_w2, V, H, blk.lt.data(), 1, kBlock, blk.h.data(),
                           n);
    for (std::size_t v = 0; v < V; ++v) {
      float acc = g_b2[v];
      for (std::size_t b = 0; b < n; ++b) acc += blk.lt[v * kBlock + b];
      g_b2[v] = acc;
    }
    matvec_transposed_block(w2, V, H, blk.lt.data(), 1, kBlock, blk.dh.data(),
                            n);
    for (std::size_t k = 0; k < n * H; ++k) {
      // tanh_derivative_from_output, inlined.
      blk.dh[k] *= 1.0f - blk.h[k] * blk.h[k];
    }
    outer_accumulate_block(g_w1, H, CD, blk.dh.data(), H, 1, blk.x.data(), n);
    for (std::size_t i = 0; i < H; ++i) {
      float acc = g_b1[i];
      for (std::size_t b = 0; b < n; ++b) acc += blk.dh[b * H + i];
      g_b1[i] = acc;
    }
    matvec_transposed_block(w1, H, CD, blk.dh.data(), H, 1, blk.dx.data(), n);
    for (std::size_t b = 0; b < n; ++b) {
      for (std::size_t j = 0; j < C; ++j) {
        float* ge = g_embed + blk.ctx[b * C + j] * De;
        const float* dx = blk.dx.data() + b * CD + j * De;
        for (std::size_t d = 0; d < De; ++d) ge[d] += dx[d];
      }
    }
  }

  LmConfig cfg_;
  Offsets offsets_{};
  std::vector<float> params_;
};

// ---------------------------------------------------------------------------
// Single-layer LSTM language model with BPTT.
// Gate order within the 4H block: input, forget, candidate, output.
// Layout: E[V*De] | Wx[4H*De] | Wh[4H*H] | b[4H] | Wo[V*H] | bo[V].
// ---------------------------------------------------------------------------
class LstmLm final : public LanguageModel {
 public:
  LstmLm(const LmConfig& cfg, util::Rng& rng) : cfg_(cfg) {
    const std::size_t V = cfg.vocab_size, De = cfg.embed_dim, H = cfg.hidden_dim;
    offsets_.embed = 0;
    offsets_.wx = offsets_.embed + V * De;
    offsets_.wh = offsets_.wx + 4 * H * De;
    offsets_.b = offsets_.wh + 4 * H * H;
    offsets_.wo = offsets_.b + 4 * H;
    offsets_.bo = offsets_.wo + V * H;
    params_.resize(offsets_.bo + V);
    init_params(params_, rng);
    // Forget-gate bias init to 1.0: standard trick for trainable small LSTMs.
    for (std::size_t i = 0; i < H; ++i) params_[offsets_.b + H + i] = 1.0f;
  }

  std::size_t num_params() const override { return params_.size(); }
  std::span<float> params() override { return params_; }
  std::span<const float> params() const override { return params_; }

  double loss(std::span<const Sequence> batch,
              std::span<float> grad) const override {
    if (!grad.empty() && grad.size() != params_.size()) {
      throw std::invalid_argument("LstmLm::loss: gradient buffer size mismatch");
    }
    if (!grad.empty()) std::fill(grad.begin(), grad.end(), 0.0f);

    const std::size_t n_pred = num_predictions(batch);
    if (n_pred == 0) return 0.0;
    const float inv_n = 1.0f / static_cast<float>(n_pred);

    double total_loss = 0.0;
    for (const auto& seq : batch) {
      if (seq.size() < 2) continue;
      total_loss += sequence_loss(seq, grad, inv_n);
    }
    return total_loss / static_cast<double>(n_pred);
  }

  std::unique_ptr<LanguageModel> clone() const override {
    return std::make_unique<LstmLm>(*this);
  }

 private:
  struct Offsets {
    std::size_t embed, wx, wh, b, wo, bo;
  };

  /// Forward + (optional) BPTT for one sequence.  Returns the *summed*
  /// cross-entropy over the sequence; gradients are scaled by inv_n so the
  /// batch-level gradient matches the mean loss.
  double sequence_loss(const Sequence& seq, std::span<float> grad,
                       float inv_n) const {
    const std::size_t V = cfg_.vocab_size, De = cfg_.embed_dim,
                      H = cfg_.hidden_dim;
    const std::size_t steps = seq.size() - 1;

    const std::span<const float> embed(params_.data() + offsets_.embed, V * De);
    const std::span<const float> wx(params_.data() + offsets_.wx, 4 * H * De);
    const std::span<const float> wh(params_.data() + offsets_.wh, 4 * H * H);
    const std::span<const float> b(params_.data() + offsets_.b, 4 * H);
    const std::span<const float> wo(params_.data() + offsets_.wo, V * H);
    const std::span<const float> bo(params_.data() + offsets_.bo, V);

    // Stored activations for BPTT, indexed by step.
    std::vector<std::vector<float>> xs(steps), gates(steps), cs(steps),
        hs(steps), tanh_cs(steps), probs(steps);
    std::vector<float> h_prev(H, 0.0f), c_prev(H, 0.0f);
    std::vector<float> z(4 * H), zh(4 * H), logits(V);

    double loss_sum = 0.0;
    for (std::size_t t = 0; t < steps; ++t) {
      const std::int32_t tok = seq[t];
      const std::int32_t target = seq[t + 1];
      check_token(tok, V);
      check_token(target, V);

      xs[t].assign(embed.begin() + static_cast<std::ptrdiff_t>(
                                       static_cast<std::size_t>(tok) * De),
                   embed.begin() + static_cast<std::ptrdiff_t>(
                                       (static_cast<std::size_t>(tok) + 1) * De));

      matvec(wx, xs[t], z, 4 * H, De);
      matvec(wh, h_prev, zh, 4 * H, H);
      for (std::size_t i = 0; i < 4 * H; ++i) z[i] += zh[i] + b[i];

      gates[t].resize(4 * H);
      cs[t].resize(H);
      hs[t].resize(H);
      tanh_cs[t].resize(H);
      for (std::size_t i = 0; i < H; ++i) {
        const float ig = sigmoid(z[i]);
        const float fg = sigmoid(z[H + i]);
        const float gg = std::tanh(z[2 * H + i]);
        const float og = sigmoid(z[3 * H + i]);
        gates[t][i] = ig;
        gates[t][H + i] = fg;
        gates[t][2 * H + i] = gg;
        gates[t][3 * H + i] = og;
        cs[t][i] = fg * c_prev[i] + ig * gg;
        tanh_cs[t][i] = std::tanh(cs[t][i]);
        hs[t][i] = og * tanh_cs[t][i];
      }

      matvec(wo, hs[t], logits, V, H);
      for (std::size_t i = 0; i < V; ++i) logits[i] += bo[i];
      const float lse = log_sum_exp(logits);
      loss_sum += lse - logits[static_cast<std::size_t>(target)];

      if (!grad.empty()) {
        probs[t] = logits;
        softmax_in_place(probs[t]);
        probs[t][static_cast<std::size_t>(target)] -= 1.0f;
        for (auto& v : probs[t]) v *= inv_n;
      }

      h_prev = hs[t];
      c_prev = cs[t];
    }

    if (grad.empty()) return loss_sum;

    const std::span<float> g_embed(grad.data() + offsets_.embed, V * De);
    const std::span<float> g_wx(grad.data() + offsets_.wx, 4 * H * De);
    const std::span<float> g_wh(grad.data() + offsets_.wh, 4 * H * H);
    const std::span<float> g_b(grad.data() + offsets_.b, 4 * H);
    const std::span<float> g_wo(grad.data() + offsets_.wo, V * H);
    const std::span<float> g_bo(grad.data() + offsets_.bo, V);

    std::vector<float> dh(H, 0.0f), dc(H, 0.0f), dz(4 * H), dh_tmp(H),
        dx(De);
    for (std::size_t t = steps; t-- > 0;) {
      // Output layer.
      outer_accumulate(g_wo, probs[t], hs[t], 1.0f, V, H);
      axpy(g_bo, probs[t], 1.0f);
      matvec_transposed(wo, probs[t], dh_tmp, V, H);
      for (std::size_t i = 0; i < H; ++i) dh[i] += dh_tmp[i];

      const std::span<const float> h_before =
          t == 0 ? std::span<const float>() : std::span<const float>(hs[t - 1]);
      const std::span<const float> c_before =
          t == 0 ? std::span<const float>() : std::span<const float>(cs[t - 1]);

      for (std::size_t i = 0; i < H; ++i) {
        const float ig = gates[t][i];
        const float fg = gates[t][H + i];
        const float gg = gates[t][2 * H + i];
        const float og = gates[t][3 * H + i];
        const float tc = tanh_cs[t][i];

        const float do_ = dh[i] * tc;
        dc[i] += dh[i] * og * tanh_derivative_from_output(tc);

        const float c_prev_i = t == 0 ? 0.0f : c_before[i];
        const float di = dc[i] * gg;
        const float df = dc[i] * c_prev_i;
        const float dg = dc[i] * ig;

        dz[i] = di * ig * (1.0f - ig);
        dz[H + i] = df * fg * (1.0f - fg);
        dz[2 * H + i] = dg * tanh_derivative_from_output(gg);
        dz[3 * H + i] = do_ * og * (1.0f - og);

        // Carry cell gradient to t-1 through the forget gate.
        dc[i] = dc[i] * fg;
      }

      outer_accumulate(g_wx, dz, xs[t], 1.0f, 4 * H, De);
      if (t > 0) {
        outer_accumulate(g_wh, dz, h_before, 1.0f, 4 * H, H);
      }
      axpy(g_b, dz, 1.0f);

      // dh for t-1 flows through Wh (matvec_transposed overwrites dh).
      if (t > 0) matvec_transposed(wh, dz, dh, 4 * H, H);

      // Embedding gradient.
      matvec_transposed(wx, dz, dx, 4 * H, De);
      const auto tok = static_cast<std::size_t>(seq[t]);
      float* ge = g_embed.data() + tok * De;
      for (std::size_t d = 0; d < De; ++d) ge[d] += dx[d];
    }
    return loss_sum;
  }

  LmConfig cfg_;
  Offsets offsets_{};
  std::vector<float> params_;
};

}  // namespace

std::unique_ptr<LanguageModel> make_mlp_lm(const LmConfig& config,
                                           util::Rng& rng) {
  return std::make_unique<MlpLm>(config, rng);
}

std::unique_ptr<LanguageModel> make_lstm_lm(const LmConfig& config,
                                            util::Rng& rng) {
  return std::make_unique<LstmLm>(config, rng);
}

}  // namespace papaya::ml
