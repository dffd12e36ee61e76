"""The traced functions of each layer (package module), by name only.

Kept free of imports of the package so run.py can list the
per-layer metrics without loading it.
"""

LAYER_FUNCTIONS = {
    "env": ("step", "peek_demands", "init_network"),
    "runner": ("assemble_all_states", "record_step"),
    "agent": ("select_action", "train_step", "soft_update", "ReplayBuffer.add",
              "ReplayBuffer.sample", "ReplayBuffer.export", "ReplayBuffer.load",
              "save_agent", "load_agent"),
    "nn": ("mlp_forward", "mlp_logits", "mlp_backward", "adam_step"),
    "similarity": ("collect_default_samples", "vae_train", "encode_samples",
                   "compute_distance_matrix"),
    "transfer": ("instance_transfer", "integrated_transfer", "fine_tune"),
    "harness": ("rollout", "evaluate_policies", "write_metrics_csv",
                "save_trace", "load_trace", "load_pretrained"),
}
LABELS = tuple(f"{m}.{f}" for m, fns in LAYER_FUNCTIONS.items() for f in fns)

# Children of agent.train_step grouped into the phases of one TD3 update.
TRAIN_STEP_PHASES = {
    "forward_s": ("nn.mlp_forward", "nn.mlp_logits"),
    "backward_s": ("nn.mlp_backward",),
    "adam_s": ("nn.adam_step",),
    "soft_update_s": ("agent.soft_update",),
}
