// Fixture explorer: the raw Schedule here captures `this`, which dangles
// once the run completes (the violation).

struct Probe {
  void Start();
  void Fire();
  int* queue = nullptr;
};

void Probe::Start() {
  queue->Schedule(1, [this]() { Fire(); });
}
