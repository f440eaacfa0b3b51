package cluster

import "taskprov/internal/mofka"

// Service returns the cluster as a mofka.Service: pulls and lengths serve the
// acknowledged prefix. mofka.Serve puts it on a Mercury endpoint, so a
// mofka.Remote reads a cluster gateway as it reads a standalone broker.
func (c *Cluster) Service() mofka.Service { return clusterService{c} }

type clusterService struct{ c *Cluster }

func (s clusterService) Topics() ([]string, error) { return s.c.Topics(), nil }

func (s clusterService) TopicInfo(name string) (int, error) {
	t, err := s.c.Topic(name)
	if err != nil {
		return 0, err
	}
	return t.PartitionCount(), nil
}

func (s clusterService) Pull(topic string, part int, from uint64, max int) ([]mofka.Event, error) {
	return s.c.Read(topic, part, from, max)
}

func (s clusterService) PartitionLength(topic string, part int) (uint64, error) {
	return s.c.Length(topic, part)
}
