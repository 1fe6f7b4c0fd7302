// Weighted model update (§3.2, Eq. 7).
//
//   w_{t+1}^k = w_t^k - eta * (1/n) * sum_j db_j^k * g_t^j
//
// where db_j^k = LBS_j / LBS_k compensates for the different sample sizes
// workers computed their gradients over. With equal LBS everywhere the
// weight is 1 and Eq. 7 reduces to the standard distributed update (Eq. 4) -
// a property the tests assert.
//
// Under elastic membership, n and the LBS/GBS split are defined over the
// *live roster*: every join/leave renormalizes the LBS allocation so that
// sum(LBS_live) == GBS (dormant slots hold zero batch), and the n in the
// update is the live worker count. The weights below take those live-set
// values as inputs; they never look at the roster themselves.
#pragma once

#include "comm/message.h"
#include "nn/model.h"

namespace dlion::core {

/// Normalized dynamic batching weight: db_j = n * LBS_j / GBS. Same
/// *direction* as Eq. 7 (both weight gradients proportionally to the sample
/// count they were computed over: n*LBS_j/GBS = (LBS_j/LBS_k) * (n*LBS_k /
/// GBS)), but the receiver-dependent factor n*LBS_k/GBS is divided out so
/// the sum of weights is n at every worker - i.e. every replica takes the
/// same-magnitude step. The literal Eq. 7 makes small-LBS workers take
/// GBS/(n*LBS_k)-times larger steps, which destabilizes them when the LBS
/// spread is large; the paper does not discuss this regime. DLion uses the
/// normalized form only.
double normalized_batching_weight(std::size_t lbs_sender, std::size_t gbs,
                                  std::size_t n_workers, bool enabled = true);

/// Apply one worker's (possibly sparse) gradient contribution to the local
/// model: w -= eta/n * db * g for every transmitted entry.
void apply_gradient_update(nn::Model& model, const comm::GradientUpdate& update,
                           double eta, std::size_t n_workers, double db);

/// Apply the local model's own freshly computed gradients:
/// w -= eta/n * db * g (db = n*LBS_k/GBS under weighted update, else 1).
void apply_own_gradients(nn::Model& model, double eta, std::size_t n_workers,
                         double db = 1.0);

/// Overwrite the model's weights from a received snapshot payload (one part
/// per variable, model order) - the payload-view counterpart of
/// nn::Model::set_weights, reading the wire views directly so adopting a
/// peer's weights (catch-up, bootstrap) never builds an intermediate
/// Snapshot.
void assign_weights(nn::Model& model, const comm::WeightPayload& weights);

}  // namespace dlion::core
